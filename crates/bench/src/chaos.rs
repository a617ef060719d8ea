//! Chaos harness: the fuzz/differential machinery re-run under seeded
//! fault plans with a tightened watchdog budget.
//!
//! Two layers, both replayable byte-for-byte from `(seed, fault_seed)`:
//!
//! * **Fuzz-program chaos** ([`run_fuzz_chaos`]) — the PR-3 generated
//!   walker programs run under the aggressive [`DEFAULT_CHAOS_SPEC`]
//!   (fill drops, delays, ECC flips, port/response stalls, meta-tag
//!   misfires). There is no functional oracle for a faulted run, so the
//!   checks are *liveness and conservation* invariants: every access is
//!   answered exactly once, the run terminates well inside its cycle
//!   bound (the watchdog converts stuck walks into retries or contained
//!   kills), and `walker_launch == walker_retire + walker_fault +
//!   walker_replay` at quiescence. [`chaos_skip_differential`] and
//!   [`chaos_jobs_differential`] then demand the usual byte-identity
//!   under fast-forwarding on/off and 1-vs-2 runner jobs — with faults
//!   armed, which is exactly when per-tick randomness would betray
//!   itself.
//!
//! * **DSA chaos cells** ([`dsa_chaos_cells`]) — the fig04 Widx workload
//!   (coroutine and blocking-thread disciplines, fig07's axis) under the
//!   timing-only [`DSA_TIMING_SPEC`]: delays and stalls may reshape the
//!   schedule but must not change what the walks compute, so the oracle
//!   checksum still binds and is checked. The GraphPulse cell runs the
//!   full [`DEFAULT_CHAOS_SPEC`]; its walker never touches DRAM (event
//!   payloads live on-chip), so most kinds are structurally inert there
//!   and the cell asserts termination under an armed plan plus the
//!   skip/jobs byte-identity. Three cells run the 4-shard topology under
//!   [`SHARD_CHAOS_SPEC`], which adds the bank-conflict-storm and
//!   crossbar link-delay kinds — still timing-only — so the
//!   differentials exercise fault determinism *through the sharded
//!   topology*: sharded Widx (fig04 workload) and sharded SpGEMM
//!   (Gustavson), where the oracle checksum binds and is enforced, and
//!   sharded GraphPulse, where on-chip-only event state makes the
//!   checksum unenforceable and the cell asserts termination with
//!   exactly-once completion instead.
//!
//! The `chaos_smoke` binary drives both layers over `XCACHE_CHAOS_SEEDS`
//! seeds in CI and dumps violating runs (with their harvested
//! [`StallReport`](xcache_sim::StallReport)s) under `results/chaos/`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use xcache_core::{splitmix64, WalkerDiscipline, XCache, XCacheConfig};
use xcache_dsa::{graphpulse, widx};
use xcache_isa::gen;
use xcache_isa::{EventId, StateId};
use xcache_mem::{DramConfig, DramModel, MainMemory, MemoryPort};
use xcache_sim::{
    with_fault_plan, with_skip, with_watchdog_budget, Cycle, FaultPlan, StatsSnapshot,
};
use xcache_workloads::QueryClass;

use crate::fuzz::{access_stream, FUZZ_BASE, WINDOW_BYTES};
use crate::runner::{Runner, Scenario};
use crate::{graphpulse_geometry, note_sim_cycles, p2p08_pagerank, widx_geometry, widx_workload};

/// The aggressive spec for fuzz-program chaos: every fault kind armed at
/// rates that fire several times per 96-access run without drowning it.
pub const DEFAULT_CHAOS_SPEC: &str = "dram_drop=0.02,dram_delay=0.03:40,dram_ecc=0.01,\
     port_stall=0.02:6,resp_stall=0.02:24,meta_misfire=0.01";

/// Timing-only spec for the oracle-checked Widx cells: no drops, flips,
/// or misfires, so the faulted run must still compute the exact oracle
/// checksum — schedule perturbations may never change results.
pub const DSA_TIMING_SPEC: &str = "dram_delay=0.02:48,port_stall=0.02:4,resp_stall=0.02:24";

/// Timing-only spec for the sharded Widx cell: the single-instance
/// delays plus the sharded-topology kinds — `bank_conflict_storm`
/// inflates bank service latency, `link_delay` holds crossbar messages
/// on the wire. Neither changes data, so the oracle checksum binds.
pub const SHARD_CHAOS_SPEC: &str = "dram_delay=0.02:48,port_stall=0.02:4,resp_stall=0.02:24,\
     bank_conflict_storm=0.05:24,link_delay=0.08:8";

/// Shard count for the sharded chaos cell.
pub const CHAOS_SHARDS: usize = 4;

/// Watchdog budget for chaos runs: far above any legitimate wait in the
/// fuzz/DSA workloads (hundreds of cycles), far below the runs' cycle
/// bounds, so a dropped fill costs one retry round-trip instead of a
/// million-cycle default budget.
pub const CHAOS_WATCHDOG_BUDGET: u64 = 10_000;

/// Everything observable about one fault-injected fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Program/workload seed (as in [`crate::fuzz`]).
    pub seed: u64,
    /// Chaos seed the per-run [`FaultPlan`] derives from.
    pub fault_seed: u64,
    /// End cycle of the run (after the quiescence drain).
    pub cycles: u64,
    /// Order-independent fold of every response (found flag + payload).
    pub checksum: u64,
    /// Rendered [`StallReport`](xcache_sim::StallReport)s the watchdog
    /// emitted — expected non-empty whenever a fill was dropped.
    pub stall_reports: Vec<String>,
    /// Invariant violations; an empty list is a passing run.
    pub violations: Vec<String>,
    /// Merged controller + DRAM counters.
    pub stats: StatsSnapshot,
}

impl ChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical JSON rendering — the byte string the differentials
    /// compare (stall-report text included, so report content is part of
    /// the determinism contract).
    #[must_use]
    pub fn stats_json(&self) -> String {
        let mut out = format!(
            "{{\"seed\":{},\"fault_seed\":{},\"cycles\":{},\"checksum\":{},\"stalls\":[",
            self.seed, self.fault_seed, self.cycles, self.checksum
        );
        for (i, s) in self.stall_reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s:?}");
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v:?}");
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.stats.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
        out
    }
}

/// The per-run fault plan: one spec, seeded from the chaos seed mixed
/// with a per-run salt so plans differ across runs of a batch while
/// staying fully reproducible from `(fault_seed, salt)`.
fn plan_for(spec: &str, fault_seed: u64, salt: u64) -> Arc<FaultPlan> {
    let seed = splitmix64(fault_seed ^ splitmix64(salt));
    Arc::new(FaultPlan::parse(spec, seed).expect("chaos spec parses"))
}

/// Runs the program generated from `seed` over its synthetic workload
/// (exactly [`crate::fuzz::run_seed`]'s setup) under the
/// [`DEFAULT_CHAOS_SPEC`] fault plan and the chaos watchdog budget,
/// checking liveness and conservation instead of a functional oracle.
///
/// The fault-plan and watchdog overrides are applied *inside* this
/// function, so it is safe to call from runner worker threads.
#[must_use]
pub fn run_fuzz_chaos(seed: u64, fault_seed: u64, accesses: usize) -> ChaosReport {
    let plan = plan_for(DEFAULT_CHAOS_SPEC, fault_seed, seed);
    with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            chaos_drive(seed, fault_seed, accesses)
        })
    })
}

#[allow(clippy::too_many_lines)]
fn chaos_drive(seed: u64, fault_seed: u64, accesses: usize) -> ChaosReport {
    let program = gen::generate(seed);
    let has_store = program
        .table
        .lookup(StateId::DEFAULT, EventId::UPDATE)
        .is_some();
    let stream = access_stream(seed, accesses, has_store);

    let mut mem = MainMemory::new();
    let mut x = seed;
    for w in 0..WINDOW_BYTES / 8 {
        x = splitmix64(x);
        mem.write_u64(FUZZ_BASE + w * 8, x);
    }
    let dram = DramModel::with_memory(DramConfig::test_tiny(), mem);
    let cfg = XCacheConfig::test_tiny().with_params(vec![FUZZ_BASE]);
    let mut xc = XCache::new(cfg, program, dram).expect("generated program is verifier-clean");

    let mut violations = Vec::new();
    let mut responses: HashMap<u64, u64> = HashMap::new();
    let mut now = Cycle(0);
    let mut next = 0usize;
    let mut done = 0usize;
    let mut checksum = 0u64;
    let total = stream.len();
    let max_cycles = 2_000 * total as u64 + 1_000_000;
    while done < total {
        while next < total && xc.can_accept() {
            xc.try_access(now, stream[next])
                .expect("can_accept checked");
            next += 1;
        }
        xc.tick(now);
        while let Some(resp) = xc.take_response(now) {
            *responses.entry(resp.id).or_insert(0) += 1;
            checksum = checksum
                .wrapping_add(splitmix64(resp.id ^ u64::from(resp.found)))
                .wrapping_add(resp.data.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
            done += 1;
        }
        if done >= total {
            break;
        }
        let mut wake = xc.next_event(now);
        if next < total && xc.can_accept() {
            wake = Some(now.next());
        }
        now = xcache_sim::fast_forward(now, wake);
        if now.raw() >= max_cycles {
            violations.push(format!(
                "hung: {done}/{total} accesses answered after {max_cycles} cycles \
                 (watchdog failed to keep the run live)"
            ));
            break;
        }
    }

    // Quiesce: no walk may outlive its access stream, and nothing may
    // answer twice. Single-stepped, so both skip modes drain identically.
    let mut spins = 0u32;
    while xc.busy() || xc.downstream().busy() {
        now = now.next();
        xc.tick(now);
        while let Some(resp) = xc.take_response(now) {
            *responses.entry(resp.id).or_insert(0) += 1;
            violations.push(format!(
                "stray response for access {} after the stream completed",
                resp.id
            ));
        }
        spins += 1;
        if spins > 200_000 {
            violations.push("instance never quiesced after the stream completed".into());
            break;
        }
    }

    let mut dups: Vec<(u64, u64)> = responses
        .iter()
        .filter(|&(_, &n)| n > 1)
        .map(|(&id, &n)| (id, n))
        .collect();
    dups.sort_unstable();
    for (id, n) in dups {
        violations.push(format!("access {id} answered {n} times"));
    }

    let launched = xc.stats().get("xcache.walker_launch");
    let retired = xc.stats().get("xcache.walker_retire");
    let faulted = xc.stats().get("xcache.walker_fault");
    let replayed = xc.stats().get("xcache.walker_replay");
    if launched != retired + faulted + replayed {
        violations.push(format!(
            "walker conservation violated: {launched} launched != \
             {retired} retired + {faulted} faulted + {replayed} replayed"
        ));
    }

    let stall_reports = xc.stall_reports().iter().map(ToString::to_string).collect();
    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().stats());
    ChaosReport {
        seed,
        fault_seed,
        cycles: now.raw(),
        checksum,
        stall_reports,
        violations,
        stats: stats.snapshot(),
    }
}

/// Runs `seed` under chaos with fast-forwarding on and off and demands
/// byte-identical reports. Returns the (shared) fast report — including
/// its invariant verdict — on agreement.
///
/// `with_skip` is thread-local: call this on the thread that owns the
/// comparison (never through the multi-threaded [`Runner`]).
///
/// # Errors
///
/// Returns `Err` with both renderings when the runs diverge.
pub fn chaos_skip_differential(
    seed: u64,
    fault_seed: u64,
    accesses: usize,
) -> Result<ChaosReport, String> {
    let fast = with_skip(true, || run_fuzz_chaos(seed, fault_seed, accesses));
    let slow = with_skip(false, || run_fuzz_chaos(seed, fault_seed, accesses));
    let (fj, sj) = (fast.stats_json(), slow.stats_json());
    if fj == sj {
        Ok(fast)
    } else {
        Err(format!(
            "seed {seed} (fault seed {fault_seed}): chaos skip and no-skip runs diverged\n  \
             skip:    {fj}\n  no-skip: {sj}"
        ))
    }
}

/// Runs every seed under chaos through the [`Runner`] at one and two
/// worker threads and demands the per-seed JSON vectors agree.
///
/// # Errors
///
/// Returns `Err` naming the first diverging seed otherwise.
pub fn chaos_jobs_differential(
    seeds: &[u64],
    fault_seed: u64,
    accesses: usize,
) -> Result<Vec<String>, String> {
    let grid = || {
        seeds
            .iter()
            .map(|&seed| {
                Scenario::new(format!("chaos seed {seed}"), move || {
                    run_fuzz_chaos(seed, fault_seed, accesses).stats_json()
                })
            })
            .collect::<Vec<_>>()
    };
    let seq = Runner::with_jobs(1).run(grid());
    let par = Runner::with_jobs(2).run(grid());
    for ((s, p), seed) in seq.iter().zip(&par).zip(seeds) {
        if s != p {
            return Err(format!(
                "seed {seed}: chaos jobs=1 and jobs=2 runs diverged\n  jobs=1: {s}\n  jobs=2: {p}"
            ));
        }
    }
    Ok(seq)
}

/// One DSA scenario run under chaos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosCell {
    /// The fig04 workload (Widx TPC-H Q19), coroutine discipline, under
    /// [`DSA_TIMING_SPEC`]; the oracle checksum is enforced.
    WidxFig04,
    /// The same workload under the blocking-thread discipline (fig07's
    /// ablation axis), same spec and oracle check.
    WidxBlockingThread,
    /// The fig14 GraphPulse PageRank cell under the full
    /// [`DEFAULT_CHAOS_SPEC`]; termination and determinism only.
    GraphPulse,
    /// The fig04 workload on the [`CHAOS_SHARDS`]-shard topology under
    /// [`SHARD_CHAOS_SPEC`] (bank conflict storms + crossbar link
    /// delays); timing-only, so the oracle checksum is enforced.
    WidxSharded,
    /// SpGEMM (Gustavson) on the sharded topology under
    /// [`SHARD_CHAOS_SPEC`]. The product checksum folds exact small-int
    /// f64 MACs order-independently, so timing-only faults must leave it
    /// equal to the oracle — enforced, like the sharded Widx cell.
    SpgemmSharded,
    /// GraphPulse PageRank on the sharded topology under
    /// [`SHARD_CHAOS_SPEC`]. Event payloads live on-chip, so a watchdog
    /// kill legitimately drops in-flight upserts — the checksum does not
    /// bind (same rationale as the non-sharded GraphPulse cell); the cell
    /// asserts termination plus the skip/jobs byte-identity.
    GraphPulseSharded,
}

impl ChaosCell {
    /// Every cell, in declaration order. New cells append: the per-cell
    /// fault-plan salt is `cell as u64 + 1`, so insertion in the middle
    /// would silently reshuffle every later cell's fault schedule.
    pub const ALL: [ChaosCell; 6] = [
        ChaosCell::WidxFig04,
        ChaosCell::WidxBlockingThread,
        ChaosCell::GraphPulse,
        ChaosCell::WidxSharded,
        ChaosCell::SpgemmSharded,
        ChaosCell::GraphPulseSharded,
    ];

    /// Stable label (also the determinism-diff key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosCell::WidxFig04 => "widx-fig04",
            ChaosCell::WidxBlockingThread => "widx-blocking-thread",
            ChaosCell::GraphPulse => "graphpulse",
            ChaosCell::WidxSharded => "widx-sharded",
            ChaosCell::SpgemmSharded => "spgemm-sharded",
            ChaosCell::GraphPulseSharded => "graphpulse-sharded",
        }
    }
}

/// Canonical rendering of one DSA chaos cell (same shape as
/// [`ChaosReport::stats_json`], keyed by cell name).
fn render_cell(
    cell: ChaosCell,
    run: Result<&xcache_dsa::RunReport, &str>,
    oracle_violation: Option<String>,
) -> String {
    let mut out = format!("{{\"cell\":\"{}\"", cell.name());
    match run {
        Ok(r) => {
            let _ = write!(out, ",\"cycles\":{},\"checksum\":{}", r.cycles, r.checksum);
            out.push_str(",\"violations\":[");
            if let Some(v) = &oracle_violation {
                let _ = write!(out, "{v:?}");
            }
            out.push_str("],\"counters\":{");
            for (i, (k, v)) in r.stats.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        Err(e) => {
            let _ = write!(out, ",\"violations\":[{e:?}]}}");
        }
    }
    out
}

/// Whether a rendered cell (from [`run_dsa_chaos_cell`]) recorded any
/// violation.
#[must_use]
pub fn cell_has_violation(rendered: &str) -> bool {
    !rendered.contains("\"violations\":[]")
}

/// Runs one DSA scenario under its chaos plan and returns the canonical
/// rendering. Overrides are applied inside, so this is safe from runner
/// worker threads; determinism differentials compare the returned
/// strings byte-for-byte.
#[must_use]
pub fn run_dsa_chaos_cell(cell: ChaosCell, scale: u32, seed: u64, fault_seed: u64) -> String {
    match cell {
        ChaosCell::WidxFig04 => {
            widx_chaos(cell, scale, seed, fault_seed, WalkerDiscipline::Coroutine)
        }
        ChaosCell::WidxBlockingThread => widx_chaos(
            cell,
            scale,
            seed,
            fault_seed,
            WalkerDiscipline::BlockingThread,
        ),
        ChaosCell::GraphPulse => graphpulse_chaos(scale, seed, fault_seed),
        ChaosCell::WidxSharded => widx_sharded_chaos(cell, scale, seed, fault_seed),
        ChaosCell::SpgemmSharded => spgemm_sharded_chaos(cell, scale, seed, fault_seed),
        ChaosCell::GraphPulseSharded => graphpulse_sharded_chaos(cell, scale, seed, fault_seed),
    }
}

/// The sharded Widx chaos cell: the fig04 workload across
/// [`CHAOS_SHARDS`] controller instances with bank-conflict storms on
/// the shared banked DRAM and delays on the crossbar links.
fn widx_sharded_chaos(cell: ChaosCell, scale: u32, seed: u64, fault_seed: u64) -> String {
    let w = widx_workload(QueryClass::Q19, scale, seed);
    let g = widx_geometry(scale);
    let plan = plan_for(SHARD_CHAOS_SPEC, fault_seed, cell as u64 + 1);
    let out = with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            widx::run_xcache_sharded_chaos(&w, Some(g), CHAOS_SHARDS)
        })
    });
    match out {
        Ok(r) => {
            note_sim_cycles(r.cycles);
            // Timing-only faults must not change what the walks compute.
            let oracle = w.oracle_checksum();
            let violation = (r.checksum != oracle).then(|| {
                format!(
                    "timing-only faults changed sharded results: checksum {} != oracle {oracle}",
                    r.checksum
                )
            });
            render_cell(cell, Ok(&r), violation)
        }
        Err(e) => render_cell(cell, Err(&e), None),
    }
}

/// The sharded SpGEMM chaos cell: Gustavson A×B across [`CHAOS_SHARDS`]
/// controller instances under the timing-only [`SHARD_CHAOS_SPEC`].
/// Every A-element must be answered exactly once (the sharded driver's
/// in-flight map panics on a duplicate and the run only completes when
/// all elements retire), and because the product checksum folds exact
/// integer-valued f64 MACs order-independently, bank-conflict storms and
/// link delays must leave it equal to the oracle.
fn spgemm_sharded_chaos(cell: ChaosCell, scale: u32, seed: u64, fault_seed: u64) -> String {
    use xcache_dsa::spgemm::{self, Algorithm, SpgemmWorkload};

    let w = SpgemmWorkload::paper_like(Algorithm::Gustavson, scale, seed);
    let g = crate::spgemm_geometry(scale);
    let plan = plan_for(SHARD_CHAOS_SPEC, fault_seed, cell as u64 + 1);
    let out = with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            spgemm::run_xcache_sharded_chaos(&w, Some(g), CHAOS_SHARDS)
        })
    });
    match out {
        Ok(r) => {
            note_sim_cycles(r.cycles);
            let oracle = w.oracle_checksum();
            let violation = (r.checksum != oracle).then(|| {
                format!(
                    "timing-only faults changed sharded spgemm product: checksum {} != oracle {oracle}",
                    r.checksum
                )
            });
            render_cell(cell, Ok(&r), violation)
        }
        Err(e) => render_cell(cell, Err(&e), None),
    }
}

/// The sharded GraphPulse chaos cell: PageRank event processing across
/// [`CHAOS_SHARDS`] instances under [`SHARD_CHAOS_SPEC`]. Termination
/// (every issued upsert answered exactly once — the sharded driver's
/// requeue accounting errors out otherwise) is the property under test;
/// the checksum is *not* enforced because accumulated ranks live only
/// on-chip, so a watchdog-killed walker legitimately loses events.
fn graphpulse_sharded_chaos(cell: ChaosCell, scale: u32, seed: u64, fault_seed: u64) -> String {
    let w = p2p08_pagerank(scale, seed);
    let g = graphpulse_geometry(w.graph.vertices());
    let plan = plan_for(SHARD_CHAOS_SPEC, fault_seed, cell as u64 + 1);
    let out = with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            graphpulse::run_xcache_sharded_chaos(&w, Some(g), CHAOS_SHARDS)
        })
    });
    match out {
        Ok(r) => {
            note_sim_cycles(r.cycles);
            render_cell(cell, Ok(&r), None)
        }
        Err(e) => render_cell(cell, Err(&e), None),
    }
}

fn widx_chaos(
    cell: ChaosCell,
    scale: u32,
    seed: u64,
    fault_seed: u64,
    discipline: WalkerDiscipline,
) -> String {
    let w = widx_workload(QueryClass::Q19, scale, seed);
    let mut g = widx_geometry(scale);
    g.discipline = discipline;
    let plan = plan_for(DSA_TIMING_SPEC, fault_seed, cell as u64 + 1);
    let out = with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            widx::run_xcache_chaos(&w, Some(g))
        })
    });
    match out {
        Ok(r) => {
            note_sim_cycles(r.cycles);
            // Timing-only faults must not change what the walks compute.
            let oracle = w.oracle_checksum();
            let violation = (r.checksum != oracle).then(|| {
                format!(
                    "timing-only faults changed results: checksum {} != oracle {oracle}",
                    r.checksum
                )
            });
            render_cell(cell, Ok(&r), violation)
        }
        Err(e) => render_cell(cell, Err(&e), None),
    }
}

fn graphpulse_chaos(scale: u32, seed: u64, fault_seed: u64) -> String {
    let w = p2p08_pagerank(scale, seed);
    let g = graphpulse_geometry(w.graph.vertices());
    let plan = plan_for(
        DEFAULT_CHAOS_SPEC,
        fault_seed,
        ChaosCell::GraphPulse as u64 + 1,
    );
    let out = with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            graphpulse::run_xcache_chaos(&w, Some(g))
        })
    });
    match out {
        Ok(r) => {
            note_sim_cycles(r.cycles);
            render_cell(ChaosCell::GraphPulse, Ok(&r), None)
        }
        Err(e) => render_cell(ChaosCell::GraphPulse, Err(&e), None),
    }
}

/// The DSA chaos sweep as a scenario grid (one cell per
/// [`ChaosCell::ALL`] entry).
#[must_use]
pub fn dsa_chaos_cells(scale: u32, seed: u64, fault_seed: u64) -> Vec<Scenario<'static, String>> {
    ChaosCell::ALL
        .iter()
        .map(|&cell| {
            Scenario::new(format!("chaos {}", cell.name()), move || {
                run_dsa_chaos_cell(cell, scale, seed, fault_seed)
            })
        })
        .collect()
}

/// Runs every DSA chaos cell with fast-forwarding on and off (inline, on
/// this thread) and demands byte-identical renderings.
///
/// # Errors
///
/// Returns `Err` with both renderings on the first diverging cell.
pub fn dsa_chaos_skip_differential(
    scale: u32,
    seed: u64,
    fault_seed: u64,
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for cell in ChaosCell::ALL {
        let fast = with_skip(true, || run_dsa_chaos_cell(cell, scale, seed, fault_seed));
        let slow = with_skip(false, || run_dsa_chaos_cell(cell, scale, seed, fault_seed));
        if fast != slow {
            return Err(format!(
                "cell {}: chaos skip and no-skip runs diverged\n  skip:    {fast}\n  no-skip: {slow}",
                cell.name()
            ));
        }
        out.push(fast);
    }
    Ok(out)
}

/// Runs the DSA chaos grid at one and two runner jobs and demands the
/// renderings agree.
///
/// # Errors
///
/// Returns `Err` naming the first diverging cell otherwise.
pub fn dsa_chaos_jobs_differential(
    scale: u32,
    seed: u64,
    fault_seed: u64,
) -> Result<Vec<String>, String> {
    let seq = Runner::with_jobs(1).run(dsa_chaos_cells(scale, seed, fault_seed));
    let par = Runner::with_jobs(2).run(dsa_chaos_cells(scale, seed, fault_seed));
    for ((s, p), cell) in seq.iter().zip(&par).zip(ChaosCell::ALL) {
        if s != p {
            return Err(format!(
                "cell {}: chaos jobs=1 and jobs=2 runs diverged\n  jobs=1: {s}\n  jobs=2: {p}",
                cell.name()
            ));
        }
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_chaos_runs_are_deterministic_and_clean() {
        let a = run_fuzz_chaos(3, 7, 48);
        let b = run_fuzz_chaos(3, 7, 48);
        assert_eq!(a, b);
        assert_eq!(a.stats_json(), b.stats_json());
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert!(a.cycles > 0);
    }

    #[test]
    fn fault_seed_reaches_the_run() {
        // Across a handful of fault seeds the injected-fault counters
        // must differ somewhere — the plan is actually armed.
        let fired: Vec<u64> = (0..4)
            .map(|fs| {
                let r = run_fuzz_chaos(3, fs, 96);
                r.stats
                    .counters
                    .iter()
                    .filter(|(k, _)| k.contains(".fault."))
                    .map(|(_, v)| *v)
                    .sum()
            })
            .collect();
        assert!(
            fired.iter().any(|&n| n > 0),
            "no fault ever fired across fault seeds: {fired:?}"
        );
    }

    #[test]
    fn chaos_skip_differential_agrees() {
        let r = chaos_skip_differential(11, 5, 48).expect("skip modes agree under faults");
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn chaos_jobs_differential_agrees() {
        let out = chaos_jobs_differential(&[1, 2, 3], 9, 32).expect("job counts agree");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn widx_chaos_cell_is_deterministic_and_oracle_clean() {
        let a = run_dsa_chaos_cell(ChaosCell::WidxFig04, 64, 1, 2);
        let b = run_dsa_chaos_cell(ChaosCell::WidxFig04, 64, 1, 2);
        assert_eq!(a, b);
        assert!(!cell_has_violation(&a), "cell violated: {a}");
    }

    #[test]
    fn sharded_chaos_cell_is_deterministic_across_par_modes() {
        // The fault plan is armed inside the cell, so copies run in
        // parallel on `Runner` worker threads draw the same faults as the
        // sequential run on this thread.
        let seq = run_dsa_chaos_cell(ChaosCell::WidxSharded, 64, 1, 2);
        let cells = (0..2)
            .map(|copy| {
                Scenario::new(format!("widx-sharded #{copy}"), || {
                    run_dsa_chaos_cell(ChaosCell::WidxSharded, 64, 1, 2)
                })
            })
            .collect();
        for par in Runner::with_jobs(2).run(cells) {
            assert_eq!(seq, par, "sharded chaos diverged between seq and par");
        }
        assert!(!cell_has_violation(&seq), "cell violated: {seq}");
    }

    #[test]
    fn new_sharded_cells_terminate_exactly_once_under_chaos() {
        // SpGEMM: a completed run means every A-element was answered
        // exactly once (the sharded driver panics on duplicates and only
        // finishes when all retire); the product checksum must survive
        // timing-only faults.
        let spgemm = run_dsa_chaos_cell(ChaosCell::SpgemmSharded, 64, 1, 2);
        assert!(!cell_has_violation(&spgemm), "cell violated: {spgemm}");
        assert!(
            spgemm.contains("\"cycles\":"),
            "run did not terminate: {spgemm}"
        );
        // GraphPulse: termination under the same spec; the checksum is
        // deliberately unenforced (on-chip-only upsert state), so a clean
        // cell is exactly "terminated with no violations recorded".
        let gp = run_dsa_chaos_cell(ChaosCell::GraphPulseSharded, 64, 1, 2);
        assert!(!cell_has_violation(&gp), "cell violated: {gp}");
        assert!(gp.contains("\"cycles\":"), "run did not terminate: {gp}");
    }

    #[test]
    fn sharded_chaos_faults_reach_bank_and_link() {
        // Across a handful of fault seeds the sharded-topology kinds
        // must fire somewhere — the spec actually arms them.
        let fired: Vec<(u64, u64)> = (0..4)
            .map(|fs| {
                let r = run_dsa_chaos_cell(ChaosCell::WidxSharded, 64, 1, fs);
                let grab = |key: &str| {
                    r.split(&format!("\"{key}\":"))
                        .nth(1)
                        .and_then(|s| {
                            s.split(|c: char| !c.is_ascii_digit())
                                .next()
                                .and_then(|d| d.parse().ok())
                        })
                        .unwrap_or(0)
                };
                (
                    grab("bank.fault.conflict_storm"),
                    grab("shard.link_fault_delays"),
                )
            })
            .collect();
        assert!(
            fired.iter().any(|&(b, _)| b > 0),
            "no bank conflict storm ever fired: {fired:?}"
        );
        assert!(
            fired.iter().any(|&(_, l)| l > 0),
            "no link delay ever fired: {fired:?}"
        );
    }
}
