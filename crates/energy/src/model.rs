//! Event-count → energy accounting (Figures 15 and 16).

use xcache_core::XCacheConfig;
use xcache_sim::StatsSnapshot;

use crate::EnergyParams;

/// Per-component energy of one run, in picojoules.
///
/// The grouping matches Figure 16: on-chip data storage, meta-tags,
/// routine RAM (the programmability cost), X-registers, action-execution
/// logic, and the AGEN/walking share that a hardwired DSA would account
/// inside its datapath.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Data RAM (sector reads/writes).
    pub data_ram_pj: f64,
    /// Meta-tag array (probes, allocations, updates).
    pub meta_tag_pj: f64,
    /// Routine/microcode RAM fetches.
    pub routine_ram_pj: f64,
    /// X-register file traffic.
    pub xreg_pj: f64,
    /// Action execution logic (queues, control, meta/data management).
    pub action_logic_pj: f64,
    /// Address generation / walking ALU work.
    pub agen_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.data_ram_pj
            + self.meta_tag_pj
            + self.routine_ram_pj
            + self.xreg_pj
            + self.action_logic_pj
            + self.agen_pj
    }

    /// Controller share (everything except the data RAM and tags) —
    /// "the cache controller itself requires ≃24% of the total cache
    /// power (including the walking logic)" (§8).
    #[must_use]
    pub fn controller_pj(&self) -> f64 {
        self.routine_ram_pj + self.xreg_pj + self.action_logic_pj + self.agen_pj
    }

    /// Fraction of total energy a component consumes.
    #[must_use]
    pub fn fraction(&self, component_pj: f64) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            component_pj / t
        }
    }

    /// Average power in milliwatts given the run length (1 GHz clock:
    /// one cycle = 1 ns).
    #[must_use]
    pub fn avg_power_mw(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        // pJ / ns = mW.
        self.total_pj() / cycles as f64
    }
}

/// Converts run statistics into energy using [`EnergyParams`].
#[derive(Debug, Clone, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// A model with Table 4 parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A model with custom parameters.
    #[must_use]
    pub fn with_params(params: EnergyParams) -> Self {
        EnergyModel { params }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Bytes of one meta-tag entry for `cfg` (key + state + sector span +
    /// flags, rounded up).
    #[must_use]
    pub fn meta_entry_bytes(cfg: &XCacheConfig) -> u64 {
        // 8 B key + 1 B state + 2×4 B sector pointers + flags ≈ 18 B.
        let _ = cfg;
        18
    }

    /// Energy of an X-Cache run from its merged statistics.
    #[must_use]
    pub fn xcache_energy(&self, stats: &StatsSnapshot, cfg: &XCacheConfig) -> EnergyBreakdown {
        let p = &self.params;
        let sector = cfg.sector_bytes();
        let tag_bytes = Self::meta_entry_bytes(cfg);

        let data_sector_accesses =
            stats.get("xcache.data_read_sector") + stats.get("xcache.data_write_sector");
        let data_word_accesses =
            stats.get("xcache.data_read_word") + stats.get("xcache.data_write_word");
        let data_ram_pj = data_sector_accesses as f64 * p.sram_access_pj(sector)
            + data_word_accesses as f64 * p.sram_access_pj(8);

        // A probe compares the 8-byte key; the full entry (pointers,
        // state) is only driven on writes.
        let meta_tag_pj = stats.get("xcache.tag_read") as f64 * p.tag_access_pj(8)
            + stats.get("xcache.tag_write") as f64 * p.tag_access_pj(tag_bytes);

        // One 128-bit microinstruction fetch per executed action.
        let routine_ram_pj =
            stats.get("xcache.ucode_read") as f64 * p.ucode_fetch_pj(xcache_isa::ACTION_BITS);

        let xreg_pj = (stats.get("xcache.xreg_read") + stats.get("xcache.xreg_write")) as f64
            * p.register_access_pj();

        let agen_pj = stats.get("xcache.action.agen") as f64 * p.alu_action_pj();

        // Non-AGEN actions: queue pushes, meta/data management, control —
        // register-transfer scale work.
        let other_actions = stats.get("xcache.action.queue")
            + stats.get("xcache.action.metatag")
            + stats.get("xcache.action.control")
            + stats.get("xcache.action.dataram");
        let action_logic_pj = other_actions as f64 * 2.0 * p.register_access_pj();

        EnergyBreakdown {
            data_ram_pj,
            meta_tag_pj,
            routine_ram_pj,
            xreg_pj,
            action_logic_pj,
            agen_pj,
        }
    }

    /// Energy of an address-cache run (the Figure 15 comparison): tag and
    /// data-array accesses at `block_bytes` granularity, plus the ideal
    /// walker's address-generation work (one ALU op per access issued —
    /// conservative, since the paper charges the hardwired walker zero).
    #[must_use]
    pub fn address_cache_energy(&self, stats: &StatsSnapshot, block_bytes: u64) -> EnergyBreakdown {
        let p = &self.params;
        // Address tags: ~6 B (tag + state) per access.
        let tag_accesses = stats.get("cache.tag_reads");
        let meta_tag_pj = tag_accesses as f64 * p.tag_access_pj(6);
        let data_accesses = stats.get("cache.data_reads")
            + stats.get("cache.data_writes")
            + stats.get("cache.fills")
            + stats.get("cache.writebacks");
        let data_ram_pj = data_accesses as f64 * p.sram_access_pj(block_bytes);
        let agen_pj = stats.get("engine.reads") as f64 * p.alu_action_pj();
        EnergyBreakdown {
            data_ram_pj,
            meta_tag_pj,
            routine_ram_pj: 0.0,
            xreg_pj: 0.0,
            action_logic_pj: 0.0,
            agen_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_sim::Stats;

    fn snapshot(entries: &[(&'static str, u64)]) -> StatsSnapshot {
        let mut s = Stats::new();
        for (k, v) in entries {
            s.add(k, *v);
        }
        s.snapshot()
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let b = EnergyBreakdown {
            data_ram_pj: 70.0,
            meta_tag_pj: 10.0,
            routine_ram_pj: 5.0,
            xreg_pj: 5.0,
            action_logic_pj: 5.0,
            agen_pj: 5.0,
        };
        assert_eq!(b.total_pj(), 100.0);
        assert_eq!(b.controller_pj(), 20.0);
        assert!((b.fraction(b.data_ram_pj) - 0.7).abs() < 1e-12);
        assert_eq!(b.avg_power_mw(100), 1.0);
    }

    #[test]
    fn xcache_energy_data_dominates_for_data_heavy_runs() {
        // Shape target of Figure 16 for a wide-entry DSA (SpArch/Gamma
        // rows span many sectors, so each tag probe amortises over many
        // sector transfers): 66-89% of energy on data, tags a few percent
        // of the data RAM energy.
        let stats = snapshot(&[
            ("xcache.data_read_sector", 90_000),
            ("xcache.data_write_sector", 30_000),
            ("xcache.tag_read", 12_000),
            ("xcache.tag_write", 2_000),
            ("xcache.ucode_read", 40_000),
            ("xcache.xreg_read", 30_000),
            ("xcache.xreg_write", 20_000),
            ("xcache.action.agen", 12_000),
            ("xcache.action.queue", 10_000),
            ("xcache.action.control", 12_000),
            ("xcache.action.metatag", 4_000),
            ("xcache.action.dataram", 6_000),
        ]);
        let cfg = XCacheConfig::sparch();
        let b = EnergyModel::new().xcache_energy(&stats, &cfg);
        let data_frac = b.fraction(b.data_ram_pj);
        assert!(
            (0.66..0.95).contains(&data_frac),
            "data share {data_frac:.2} out of expected band"
        );
        // Tags are a small share of the data energy (paper: 1.5-6.5%).
        let tag_vs_data = b.meta_tag_pj / b.data_ram_pj;
        assert!(
            (0.01..0.10).contains(&tag_vs_data),
            "tag/data ratio {tag_vs_data:.3} out of band"
        );
        assert!(b.routine_ram_pj > 0.0);
        // The programmable routine RAM is a small tax (paper: <4.2%).
        assert!(b.fraction(b.routine_ram_pj) < 0.042);
    }

    #[test]
    fn address_cache_energy_counts_blocks() {
        let stats = snapshot(&[
            ("cache.tag_reads", 1_000),
            ("cache.data_reads", 800),
            ("cache.fills", 200),
            ("engine.reads", 1_000),
        ]);
        let b = EnergyModel::new().address_cache_energy(&stats, 64);
        assert!(b.data_ram_pj > 0.0);
        assert!(b.meta_tag_pj > 0.0);
        assert_eq!(b.routine_ram_pj, 0.0);
        // 64-byte blocks: each data access costs 2x the 32-byte figure.
        assert!((b.data_ram_pj - 1_000.0 * 89.6).abs() < 1e-6);
    }

    #[test]
    fn zero_stats_zero_energy() {
        let b = EnergyModel::new().xcache_energy(&StatsSnapshot::default(), &XCacheConfig::widx());
        assert_eq!(b.total_pj(), 0.0);
        assert_eq!(b.avg_power_mw(0), 0.0);
    }
}
