//! Sharded multi-controller topology.
//!
//! A sharded X-Cache instance is `N` controller + meta-path instances
//! ([`ShardCell`]s), each owning an address-interleaved slice of the key
//! space ([`owner_of`]), over a shared banked DRAM
//! ([`BankGroup`](xcache_mem::BankGroup)) and a crossbar of fixed-latency
//! [`Link`]s. The DSA driver becomes a router: it hashes every access to
//! its owner shard's inbox link and collects responses from the outbox
//! links, interacting with the cells only at horizon boundaries (see
//! [`run_horizons`]).
//!
//! Every cell advances on the calling thread. The boundary callback
//! drains outboxes in (cycle, shard, FIFO-sequence) order, cells share no
//! mutable state, and each cell's advance depends only on its own state
//! and the target cycle, so a run is a pure function of its inputs.

use xcache_mem::{Link, MemoryPort};
use xcache_sim::{earliest, fast_forward, Cycle, Stats};

use crate::{splitmix64, MetaAccess, MetaKey, MetaResp, XCache, XCacheConfig};

/// Default crossbar per-hop latency in cycles.
pub const DEFAULT_LINK_LATENCY: u64 = 32;

/// Default horizon length in cycles. Any value is conservative-safe
/// (cells only interact at boundaries); this is a barrier-frequency /
/// driver-feedback-granularity knob, chosen as twice the link latency.
pub const DEFAULT_HORIZON: u64 = 64;

/// The shard owning `key` in an `shards`-wide topology.
///
/// Address-interleaved routing: keys are spread by the workspace's
/// standard mixer so consecutive keys land on different shards. Every key
/// has exactly one owner — the routing proptest in the bench crate pins
/// this down as a partition of the key space.
#[must_use]
pub fn owner_of(key: MetaKey, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (splitmix64(key.raw()) % shards as u64) as usize
    }
}

/// Shard count from `XCACHE_SHARDS` (must be `1..=64`), or `default`
/// when unset. A malformed or out-of-range value prints the structured
/// error and exits 2.
#[must_use]
pub fn shards_from_env(default: usize) -> usize {
    xcache_sim::exit2(xcache_sim::env_parse_map("XCACHE_SHARDS", |s| {
        let n: usize = s.parse().map_err(|e| format!("{e}"))?;
        if !(1..=64).contains(&n) {
            return Err(format!("shard count {n} outside 1..=64"));
        }
        Ok(n)
    }))
    .unwrap_or(default)
}

/// A per-shard controller geometry: the base config with the meta-tag
/// sets and data sectors divided across `shards` (floored at one
/// power-of-two set), so a sharded topology has roughly the same total
/// capacity as the single instance it replaces.
#[must_use]
pub fn shard_geometry(base: &XCacheConfig, shards: usize) -> XCacheConfig {
    let mut cfg = base.clone();
    if shards > 1 {
        cfg.sets = (base.sets / shards).max(1).next_power_of_two();
        cfg.data_sectors = (base.data_sectors / shards).max(cfg.sets * cfg.ways);
    }
    cfg
}

/// One shard: a controller + meta-path instance with its crossbar
/// endpoints and a private clock.
///
/// Between horizon boundaries the cell advances alone: it delivers due
/// inbox messages (FIFO, with back-pressure retry), ticks its controller,
/// and forwards responses to the outbox. The driver touches only
/// [`send`](ShardCell::send) / [`recv_response`](ShardCell::recv_response)
/// at boundaries.
#[derive(Debug)]
pub struct ShardCell<D: MemoryPort> {
    id: usize,
    xc: XCache<D>,
    inbox: Link<MetaAccess>,
    outbox: Link<MetaResp>,
    local_now: Cycle,
}

impl<D: MemoryPort> ShardCell<D> {
    /// Wraps `xc` as shard `id` with symmetric `link_latency` lanes.
    #[must_use]
    pub fn new(id: usize, xc: XCache<D>, link_latency: u64) -> Self {
        let lane = (id as u64) << 1;
        ShardCell {
            id,
            xc,
            inbox: Link::new(lane, link_latency),
            outbox: Link::new(lane | 1, link_latency),
            local_now: Cycle::ZERO,
        }
    }

    /// This cell's shard id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The wrapped controller.
    #[must_use]
    pub fn xcache(&self) -> &XCache<D> {
        &self.xc
    }

    /// The cell's private clock (equals the last boundary target after a
    /// horizon completes).
    #[must_use]
    pub fn local_now(&self) -> Cycle {
        self.local_now
    }

    /// Routes `access` onto this shard's inbox lane at `now` (a boundary
    /// cycle). The lane's bandwidth and latency pace actual delivery.
    pub fn send(&mut self, now: Cycle, access: MetaAccess) {
        self.inbox.send(now, access.id(), access);
    }

    /// Pops the oldest response whose crossbar arrival is due at `now`,
    /// with its arrival cycle (drivers use the latest arrival as the
    /// cadence-independent end-of-run cycle).
    pub fn recv_response(&mut self, now: Cycle) -> Option<(Cycle, MetaResp)> {
        self.outbox.recv_due(now)
    }

    /// Earliest cycle at which this cell or its crossbar endpoints could
    /// do observable work: the controller's own wake-up, the next inbox
    /// delivery, or the next outbox arrival the driver should drain.
    #[must_use]
    pub fn next_wake(&self) -> Option<Cycle> {
        earliest(
            self.xc.next_event(self.local_now),
            earliest(self.inbox.next_arrival(), self.outbox.next_arrival()),
        )
    }

    /// Merges the controller's and crossbar lanes' counters into `out`.
    /// Downstream (memory-side) counters are merged by the driver, which
    /// knows the concrete port type.
    pub fn merge_stats_into(&self, out: &mut Stats) {
        out.merge(self.xc.stats());
        out.add(
            "shard.link_msgs",
            self.inbox.messages() + self.outbox.messages(),
        );
        out.add(
            "shard.link_fault_delays",
            self.inbox.fault_delays() + self.outbox.fault_delays(),
        );
    }

    /// One observable step at `now`: deliver due inbox messages while the
    /// controller accepts them, tick, forward responses.
    fn step(&mut self, now: Cycle) {
        while self.xc.can_accept() {
            match self.inbox.recv_due(now) {
                Some((_, access)) => {
                    self.xc
                        .try_access(now, access)
                        .expect("can_accept checked before delivery");
                }
                None => break,
            }
        }
        self.xc.tick(now);
        while let Some(resp) = self.xc.take_response(now) {
            self.outbox.send(now, resp.id, resp);
        }
    }

    /// Brings the cell's local clock exactly to `to`, stepping only at
    /// cycles where the controller or its inbox has work.
    pub fn advance(&mut self, to: Cycle) {
        while self.local_now < to {
            let wake = earliest(
                self.xc.next_event(self.local_now),
                self.inbox.next_arrival(),
            );
            let step_at = match wake {
                // Fully idle: every tick up to the boundary is a no-op in
                // both skip modes, so jump straight there.
                None => {
                    self.local_now = to;
                    return;
                }
                // A backpressured inbox head is due in the past; retry
                // one cycle at a time until the controller accepts it.
                Some(w) if w <= self.local_now => self.local_now.next(),
                w => fast_forward(self.local_now, w),
            };
            if step_at > to {
                // Next observable work is past the boundary; idle-jump.
                self.local_now = to;
                return;
            }
            self.local_now = step_at;
            self.step(step_at);
        }
    }
}

/// The next horizon boundary after `after`: at least `horizon` cycles
/// out, stretched to the earliest cell wake-up when every cell is idle
/// longer than that (so fully-parked topologies skip empty rounds).
///
/// This is deliberately independent of skip mode — the boundary cadence
/// is part of the deterministic contract.
#[must_use]
pub fn horizon_target<D: MemoryPort>(cells: &[ShardCell<D>], after: Cycle, horizon: u64) -> Cycle {
    let wake = cells
        .iter()
        .fold(None, |wake, cell| earliest(wake, cell.next_wake()));
    let base = after + horizon.max(1);
    match wake {
        Some(w) if w > base && w != Cycle::NEVER => w,
        _ => base,
    }
}

/// Drives `cells` through horizon-synchronised time starting at `start`.
///
/// Per round, `boundary(cells, t)` drains responses, enqueues work and
/// returns the next boundary cycle, or `None` to finish; then every cell
/// advances to that target in shard order.
///
/// # Panics
///
/// Panics if `boundary` returns a target not strictly after the current
/// boundary.
pub fn run_horizons<D: MemoryPort>(
    cells: &mut [ShardCell<D>],
    start: Cycle,
    mut boundary: impl FnMut(&mut [ShardCell<D>], Cycle) -> Option<Cycle>,
) {
    let mut t = start;
    while let Some(next) = boundary(cells, t) {
        assert!(next > t, "horizon target {next} must advance past {t}");
        for cell in cells.iter_mut() {
            cell.advance(next);
        }
        t = next;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xcache_mem::{DramConfig, DramModel};

    fn array_walker() -> xcache_isa::WalkerProgram {
        xcache_isa::asm::assemble(
            r"
            walker array
            states Default, Wait
            regs 2
            params base

            routine start {
                allocR
                allocM
                mul r0, key, 32
                add r0, r0, base
                dram_read r0, 32
                yield Wait
            }
            routine fill {
                allocD r1, 1
                filld r1, 4
                updatem r1, r1
                respond
                retire
            }

            on Default, Miss -> start
            on Wait, Fill -> fill
        ",
        )
        .expect("valid walker")
    }

    pub(crate) fn build_cells(shards: usize) -> Vec<ShardCell<DramModel>> {
        let mut mem = xcache_mem::MainMemory::default();
        for key in 0..64u64 {
            mem.write_u64(0x1000 + key * 32, key * 3 + 7);
        }
        (0..shards)
            .map(|s| {
                let cfg =
                    shard_geometry(&XCacheConfig::test_tiny(), shards).with_params(vec![0x1000]);
                let xc = XCache::new(
                    cfg,
                    array_walker(),
                    DramModel::with_memory(DramConfig::default(), mem.clone()),
                )
                .expect("valid shard");
                ShardCell::new(s, xc, DEFAULT_LINK_LATENCY)
            })
            .collect()
    }

    fn run(shards: usize) -> (Cycle, u64) {
        let mut cells = build_cells(shards);
        let total = 64u64;
        for key in 0..total {
            let owner = owner_of(MetaKey::new(key), shards);
            cells[owner].send(
                Cycle::ZERO,
                MetaAccess::Load {
                    id: key,
                    key: MetaKey::new(key),
                },
            );
        }
        let mut done = 0u64;
        let mut checksum = 0u64;
        let mut end = Cycle::ZERO;
        run_horizons(&mut cells, Cycle::ZERO, |cells, t| {
            for cell in cells.iter_mut() {
                assert_eq!(cell.local_now(), t, "boundary sees every cell at {t}");
                while let Some((at, resp)) = cell.recv_response(t) {
                    assert!(resp.found);
                    checksum = checksum.wrapping_add(resp.data[0]);
                    end = end.max(at);
                    done += 1;
                }
            }
            if done >= total {
                return None;
            }
            assert!(t.raw() < 1_000_000, "sharded run hung at {done}/{total}");
            Some(horizon_target(cells, t, DEFAULT_HORIZON))
        });
        (end, checksum)
    }

    #[test]
    fn owner_of_is_a_partition() {
        for shards in 1..=8usize {
            for key in 0..4_096u64 {
                let owner = owner_of(MetaKey::new(key), shards);
                assert!(owner < shards);
                assert_eq!(owner, owner_of(MetaKey::new(key), shards));
            }
        }
        // Interleaving actually spreads: every shard owns something.
        let mut seen = [false; 4];
        for key in 0..256u64 {
            seen[owner_of(MetaKey::new(key), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shard_geometry_divides_capacity() {
        let base = XCacheConfig::widx();
        let quarter = shard_geometry(&base, 4);
        assert_eq!(quarter.sets, (base.sets / 4).next_power_of_two());
        assert!(quarter.data_sectors <= base.data_sectors);
        assert!(quarter.validate().is_ok());
        assert_eq!(shard_geometry(&base, 1), base);
    }

    #[test]
    fn sharded_run_completes_and_checks() {
        let expected: u64 = (0..64u64).map(|k| k * 3 + 7).sum();
        for shards in [2, 3] {
            let (end, checksum) = run(shards);
            assert_eq!(checksum, expected, "{shards} shards");
            assert!(end > Cycle::ZERO);
        }
    }

    #[test]
    fn seq_and_par_runs_are_byte_identical() {
        // A run is a pure function of its inputs: copies run in parallel
        // on other threads reproduce the sequential run exactly.
        let reference = run(3);
        for threads in [1, 2, 4] {
            std::thread::scope(|scope| {
                let copies: Vec<_> = (0..threads).map(|_| scope.spawn(|| run(3))).collect();
                for copy in copies {
                    let par = copy.join().expect("run panicked");
                    assert_eq!(par, reference, "{threads} parallel runs diverged from seq");
                }
            });
        }
    }

    #[test]
    fn shards_from_env_defaults() {
        // The test environment does not set XCACHE_SHARDS.
        assert_eq!(shards_from_env(4), 4);
    }
}
