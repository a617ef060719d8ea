//! The in-process simulator workloads: inputs, the checked op, and the
//! traced copy of Widx's drive loop.
//!
//! `widx::run_xcache` builds its `XCache` and `DramModel` inside one
//! call, so no layer boundary is visible from outside. [`drive_widx`]
//! replays that loop through `XCache`'s public API with the DRAM model
//! behind a [`TimedPort`], which times every call crossing the
//! controller/DRAM boundary. It is trusted only after [`replica_matches`]
//! shows it reproduces `widx::run_xcache` exactly on the same input.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xcache_bench::{graphpulse_geometry, widx_geometry, widx_workload};
use xcache_core::{MetaAccess, MetaKey, XCache, XCacheConfig};
use xcache_dsa::common::apply_image;
use xcache_dsa::graphpulse::{self, GraphPulseWorkload};
use xcache_dsa::widx::{self, WidxWorkload};
use xcache_dsa::RunReport;
use xcache_mem::{DramConfig, DramModel, MainMemory, MemReq, MemResp, MemoryPort};
use xcache_sim::Cycle;
use xcache_workloads::hashidx::NODE_BYTES;
use xcache_workloads::{CsrMatrix, Graph, GraphPreset, HashIndexLayout, QueryClass, SparsePattern};

use crate::stats::{derive, digest};

/// The harness scale divisor the paper binaries default to.
pub const SCALE: u32 = 10;

/// Where `widx::run_xcache` places the index image (its private
/// `IMAGE_BASE`); the replica must use the same addresses.
const WIDX_IMAGE_BASE: u64 = 0x10_0000;

/// What one simulator op produced that must repeat exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub checksum: u64,
    pub stats_digest: u64,
}

impl Fingerprint {
    #[must_use]
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            cycles: report.cycles,
            checksum: report.checksum,
            stats_digest: digest(&report.stats.counters),
        }
    }
}

/// One seeded input of an in-process workload.
pub enum Input {
    Widx(WidxWorkload),
    GraphPulse(GraphPulseWorkload),
}

impl Input {
    /// Input `k` of `workload` for `seed`.
    ///
    /// # Panics
    ///
    /// On a workload name other than `widx_probe` or `graphpulse_rw`.
    #[must_use]
    pub fn generate(workload: &str, seed: u64, k: u64) -> Self {
        let s = derive(seed, k);
        match workload {
            "widx_probe" => Input::Widx(widx_workload(QueryClass::Q19, SCALE, s)),
            "graphpulse_rw" => {
                let (n, e) = GraphPreset::P2pGnutella31.dims();
                let n = (n / SCALE).max(64);
                let e = (e / SCALE as usize).max(256);
                Input::GraphPulse(GraphPulseWorkload {
                    graph: Graph::from_adjacency(CsrMatrix::generate(
                        n,
                        n,
                        e,
                        SparsePattern::RMat,
                        s,
                    )),
                    iterations: 2,
                })
            }
            other => panic!("not an in-process simulator workload: {other}"),
        }
    }

    /// The geometry the op runs on.
    #[must_use]
    pub fn geometry(&self) -> XCacheConfig {
        match self {
            Input::Widx(_) => widx_geometry(SCALE),
            Input::GraphPulse(w) => graphpulse_geometry(w.graph.vertices()),
        }
    }

    /// One op: the DSA's public `run_xcache`, which panics when its
    /// result disagrees with the functional oracle. The panic is caught
    /// and returned as the op's failure.
    ///
    /// # Errors
    ///
    /// The panic message of a failed run.
    pub fn run(&self, geometry: &XCacheConfig) -> Result<RunReport, String> {
        let g = Some(geometry.clone());
        guarded(|| match self {
            Input::Widx(w) => widx::run_xcache(w, g),
            Input::GraphPulse(w) => graphpulse::run_xcache(w, g),
        })
    }
}

/// Runs `f`, turning a panic into an error carrying its message, so one
/// failed op is counted and the run goes on.
///
/// # Errors
///
/// The panic message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

/// Host time and call count accumulated at one layer boundary.
#[derive(Debug, Default)]
pub struct Clock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Clock {
    /// Runs `f`, charging its host time and one call to this clock.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    fn add(&self, d: Duration) {
        self.ns.set(self.ns.get() + d.as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    #[must_use]
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// A [`MemoryPort`] that forwards every call to `inner` and charges the
/// host time of each to one [`Clock`].
pub struct TimedPort<P> {
    inner: P,
    clock: Clock,
}

impl<P: MemoryPort> MemoryPort for TimedPort<P> {
    fn try_request(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.try_request(now, req))
    }

    fn can_accept(&self) -> bool {
        self.clock.time(|| self.inner.can_accept())
    }

    fn take_response(&mut self, now: Cycle) -> Option<MemResp> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.take_response(now))
    }

    fn tick(&mut self, now: Cycle) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.tick(now));
    }

    fn busy(&self) -> bool {
        self.clock.time(|| self.inner.busy())
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.clock.time(|| self.inner.next_event(now))
    }
}

/// The downstream of the replica: a plain DRAM model or a timed one.
pub trait Dram: MemoryPort {
    fn wrap(dram: DramModel) -> Self;
    fn model(&self) -> &DramModel;
    fn clock(&self) -> Option<&Clock>;
}

impl Dram for DramModel {
    fn wrap(dram: DramModel) -> Self {
        dram
    }
    fn model(&self) -> &DramModel {
        self
    }
    fn clock(&self) -> Option<&Clock> {
        None
    }
}

impl Dram for TimedPort<DramModel> {
    fn wrap(dram: DramModel) -> Self {
        TimedPort {
            inner: dram,
            clock: Clock::default(),
        }
    }
    fn model(&self) -> &DramModel {
        &self.inner
    }
    fn clock(&self) -> Option<&Clock> {
        Some(&self.clock)
    }
}

/// Host time of one replica run, split at the layer boundaries.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `XCache::new`: walker verification and predecode.
    pub build: Clock,
    /// `XCache::tick`, including the DRAM calls made inside it.
    pub tick: Clock,
    /// `XCache::next_event`, including the DRAM calls made inside it.
    pub next_event: Clock,
    /// Every call into the DRAM model (zero unless it is a [`TimedPort`]).
    pub dram_ns: u64,
    pub dram_calls: u64,
}

/// The controller configuration and index image `widx::run_xcache`
/// derives from a workload and geometry.
#[must_use]
pub fn widx_instance(
    workload: &WidxWorkload,
    geometry: &XCacheConfig,
) -> (XCacheConfig, HashIndexLayout) {
    let layout = workload.index.layout(WIDX_IMAGE_BASE);
    let mut cfg = geometry.clone();
    cfg.hash_latency = workload.hash_latency;
    let cfg = cfg.with_params(vec![layout.bucket_base, NODE_BYTES, layout.buckets - 1]);
    (cfg, layout)
}

/// A copy of `widx::run_xcache`'s drive loop over `XCache`'s public API,
/// generic over the DRAM model so it can run behind a [`TimedPort`].
/// Mirrors the original line for line: any change there must be made
/// here too, and [`replica_matches`] fails until it is.
///
/// # Errors
///
/// When the loop exceeds `widx::run_xcache`'s cycle bound.
///
/// # Panics
///
/// When the widx walker does not build, which is a defect of the program.
pub fn drive_widx<D: Dram>(
    workload: &WidxWorkload,
    geometry: &XCacheConfig,
    times: &mut LayerTimes,
) -> Result<RunReport, String> {
    let (cfg, layout) = widx_instance(workload, geometry);
    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    let dram = D::wrap(DramModel::with_memory(DramConfig::default(), mem));
    let mut xc = times
        .build
        .time(|| XCache::new(cfg, widx::walker(), dram))
        .expect("valid widx instance");

    let mut now = Cycle(0);
    let mut next = 0usize;
    let mut done = 0usize;
    let mut checksum = 0u64;
    let total = workload.probes.len();
    let max_cycles = 2_000 * total as u64 + 1_000_000;
    while done < total {
        while next < total && xc.can_accept() {
            let access = MetaAccess::Load {
                id: next as u64,
                key: MetaKey::new(workload.probes[next]),
            };
            xc.try_access(now, access).expect("can_accept checked");
            next += 1;
        }
        times.tick.time(|| xc.tick(now));
        while let Some(resp) = xc.take_response(now) {
            if resp.found {
                checksum = checksum.wrapping_add(resp.data[1]);
            }
            xc.recycle(resp);
            done += 1;
        }
        now = if done >= total || (next < total && xc.can_accept()) {
            now.next()
        } else {
            let ne = times.next_event.time(|| xc.next_event(now));
            xcache_sim::fast_forward(now, ne)
        };
        if now.raw() >= max_cycles {
            return Err(format!(
                "widx replica exceeded {max_cycles} cycles with {done}/{total} probes answered"
            ));
        }
    }
    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().model().stats());
    if let Some(clock) = xc.downstream().clock() {
        times.dram_ns = clock.ns();
        times.dram_calls = clock.calls();
    }
    Ok(RunReport {
        label: "xcache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        checksum,
    })
}

/// Checks that the timed replica reproduces `reference` (a
/// `widx::run_xcache` report of the same input) exactly: cycles,
/// checksum and every counter.
///
/// # Errors
///
/// A description of the first difference.
pub fn replica_matches(replica: &RunReport, reference: &RunReport) -> Result<(), String> {
    if replica.cycles != reference.cycles || replica.checksum != reference.checksum {
        return Err(format!(
            "replica gave {} cycles / checksum {:#x}, run_xcache {} / {:#x}",
            replica.cycles, replica.checksum, reference.cycles, reference.checksum
        ));
    }
    first_counter_diff(&replica.stats.counters, &reference.stats.counters)
        .map_or(Ok(()), |(k, a, b)| {
            Err(format!("replica counter {k} = {a}, run_xcache {b}"))
        })
}

fn first_counter_diff(
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
) -> Option<(String, u64, u64)> {
    a.keys()
        .chain(b.keys())
        .find(|k| a.get(*k) != b.get(*k))
        .map(|k| {
            (
                k.clone(),
                a.get(k).copied().unwrap_or(0),
                b.get(k).copied().unwrap_or(0),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_widx(seed: u64) -> (WidxWorkload, XCacheConfig) {
        let w = widx_workload(QueryClass::Q19, 40, seed);
        (w, widx_geometry(40))
    }

    #[test]
    fn timed_port_is_transparent() {
        let (w, g) = small_widx(3);
        let plain = drive_widx::<DramModel>(&w, &g, &mut LayerTimes::default()).expect("plain");
        let mut times = LayerTimes::default();
        let timed = drive_widx::<TimedPort<DramModel>>(&w, &g, &mut times).expect("timed");
        assert_eq!(plain.stats.counters, timed.stats.counters);
        assert_eq!(
            (plain.cycles, plain.checksum),
            (timed.cycles, timed.checksum)
        );
        assert!(times.dram_calls > 0, "the wrapper saw the DRAM calls");
        assert!(plain.stats.get("dram.requests") > 0);
    }

    #[test]
    fn replica_reproduces_run_xcache() {
        for seed in [1, 2] {
            let (w, g) = small_widx(seed);
            let reference = widx::run_xcache(&w, Some(g.clone()));
            let mut times = LayerTimes::default();
            let replica = drive_widx::<TimedPort<DramModel>>(&w, &g, &mut times).expect("replica");
            replica_matches(&replica, &reference).expect("replica matches");
            assert!(times.tick.calls() > 0 && times.next_event.calls() > 0);
            assert_eq!(times.build.calls(), 1);
        }
    }

    #[test]
    fn replica_check_sees_a_changed_counter() {
        let (w, g) = small_widx(1);
        let reference = widx::run_xcache(&w, Some(g.clone()));
        let mut other = reference.clone();
        *other
            .stats
            .counters
            .get_mut("xcache.tag_read")
            .expect("tag reads") += 1;
        assert!(replica_matches(&other, &reference)
            .expect_err("differs")
            .contains("xcache.tag_read"));
        other = reference.clone();
        other.cycles += 1;
        assert!(replica_matches(&other, &reference).is_err());
    }

    #[test]
    fn a_panicking_op_is_an_error() {
        assert_eq!(guarded(|| 7), Ok(7));
        let err = guarded(|| -> u64 { panic!("x-cache run diverged from the functional oracle") });
        assert!(err.expect_err("panicked").contains("functional oracle"));
        let err = guarded(|| -> u64 { panic!("{} of {}", 1, 2) });
        assert_eq!(err, Err("1 of 2".to_owned()));
    }
}
