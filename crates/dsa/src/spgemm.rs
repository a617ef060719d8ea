//! Sparse GEMM DSAs: SpArch (outer product, Zhang et al. HPCA'20) and
//! Gamma (Gustavson, Zhang et al. ASPLOS'21), §5/§7.2.
//!
//! Both compute `C = A × B` with matrix A *streamed* from DRAM (the MXS
//! hierarchy, §6) while the rows of matrix B are fetched dynamically: each
//! streamed A-element `(i, k, a)` needs row `k` of B. The X-Cache meta-tag
//! is the row id of B; the walker reads `B.row_ptr[k]`, sizes the refill,
//! and fetches the whole row — "the data fill fetches an entire row of
//! matrix B, which consists of multiple elements" (§5).
//!
//! The two DSAs share the physical X-Cache and walker — "both SpArch and
//! Gamma can use the same X-Cache microarchitecture, i.e., we only had to
//! reprogram [nothing]; only the access *order* differs" — which is the
//! portability claim the module demonstrates:
//!
//! * [`Algorithm::OuterProduct`] (SpArch): A in CSC, streamed
//!   column-major; every non-zero of column `k` reuses row `k` back to
//!   back (tile-local reuse).
//! * [`Algorithm::Gustavson`] (Gamma): A in CSR, streamed row-major; row
//!   `k` of B is reused whenever column `k` reappears in later A rows
//!   (dynamic input-dependent reuse).

use xcache_sim::FxHashMap;

use xcache_core::{
    horizon_target, owner_of, run_horizons, shard_geometry, MetaAccess, MetaKey, ShardCell,
    StreamConfig, StreamReader, XCache, XCacheConfig, DEFAULT_HORIZON, DEFAULT_LINK_LATENCY,
};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{
    AddressCache, BankGroup, BankGroupConfig, DramConfig, DramModel, MainMemory, MemoryPort,
    PortHandle, SharedPort,
};
use xcache_sim::{Cycle, Stats};
use xcache_workloads::{CsrMatrix, MatrixLayout, SparsePattern};

use crate::common::{apply_image, ProbeTask, RunReport, TaskStep};
use crate::widx::matched_address_cache_config;

/// Which SpGEMM dataflow drives the access order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// SpArch: outer product, A streamed column-major (CSC).
    OuterProduct,
    /// Gamma: Gustavson, A streamed row-major (CSR).
    Gustavson,
}

impl Algorithm {
    /// Paper-style display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::OuterProduct => "SpArch",
            Algorithm::Gustavson => "Gamma",
        }
    }
}

/// A SpGEMM workload: `C = A × B`.
#[derive(Debug, Clone)]
pub struct SpgemmWorkload {
    /// Left operand (streamed).
    pub a: CsrMatrix,
    /// Right operand (walked via X-Cache).
    pub b: CsrMatrix,
    /// Dataflow.
    pub algorithm: Algorithm,
}

impl SpgemmWorkload {
    /// The paper's input: `A × A` on a p2p-Gnutella31-sized matrix
    /// (N = 67K, NNZ = 147K), scaled by `1/scale` for quick runs.
    #[must_use]
    pub fn paper_like(algorithm: Algorithm, scale: u32, seed: u64) -> Self {
        let n = 67_000 / scale.max(1);
        let nnz = (147_000 / scale.max(1)) as usize;
        let a = CsrMatrix::generate(n, n, nnz, SparsePattern::RMat, seed);
        SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm,
        }
    }

    /// The stream of `(b_row, a_value)` work items in dataflow order.
    #[must_use]
    pub fn element_stream(&self) -> Vec<(u32, u32, f64)> {
        match self.algorithm {
            // Gustavson: row-major A; item = (i, k, a) → needs B row k.
            Algorithm::Gustavson => self.a.triples().collect(),
            // Outer product: column-major A; each column k's non-zeros
            // (i, k, a) all need B row k, consecutively.
            Algorithm::OuterProduct => {
                let csc = self.a.to_csc();
                let mut v = Vec::with_capacity(self.a.nnz());
                for k in 0..csc.cols {
                    let (s, e) = csc.col_range(k);
                    for idx in s..e {
                        v.push((csc.row_idx[idx], k, csc.values[idx]));
                    }
                }
                v
            }
        }
    }

    /// Functional oracle: checksum over the exact product (values are
    /// small integers, so f64 arithmetic is exact regardless of order).
    #[must_use]
    pub fn oracle_checksum(&self) -> u64 {
        let c = self.a.multiply(&self.b);
        product_checksum(c.triples())
    }
}

fn product_checksum(triples: impl Iterator<Item = (u32, u32, f64)>) -> u64 {
    triples.fold(0u64, |acc, (i, j, v)| {
        acc.wrapping_add(
            (u64::from(i) << 40 | u64::from(j))
                .wrapping_mul(0x0001_0000_0001)
                .wrapping_add(v as i64 as u64),
        )
    })
}

/// The row-fetch walker shared by SpArch and Gamma.
///
/// `Default,Miss`: read `row_ptr[k]` and `row_ptr[k+1]` (one 16-byte
/// access — "an extra DRAM access is required to load the start pointer of
/// the Row", §8.1). `Meta,Fill`: size the refill and fetch the whole row.
/// `Data,Fill`: copy it sector-by-sector, publish the sector span and
/// respond. X-registers persist across yields, so the row size computed in
/// `setup` (r0) is still live in `fill`.
#[must_use]
pub fn walker() -> WalkerProgram {
    assemble(
        r#"
        walker spgemm_row
        states Default, Meta, Data
        regs 6
        params row_ptr_base, pairs_base, sector_bytes, max_row_bytes

        routine start {
            allocR
            allocM
            mul r0, key, 8
            add r0, r0, row_ptr_base
            dram_read r0, 16
            yield Meta
        }

        ; Row bytes = (end - start) * 16; remember it in r0 across the
        ; fill yield so the Data routine can size sectors.
        routine setup {
            peek r1, 0
            peek r2, 1
            sub r3, r2, r1
            beq r3, 0, @empty
            mul r0, r3, 16
            bge r0, max_row_bytes, @empty   ; oversized: bypass the cache
            mul r1, r1, 16
            add r1, r1, pairs_base
            dram_read r1, r0
            yield Data
        empty:
            fault
        }

        ; sectors = ceil(r0 / sector_bytes); words = ceil(r0 / 8).
        routine fill {
            add r4, r0, sector_bytes
            sub r4, r4, 1
            srl r4, r4, 5
            allocD r5, r4
            add r3, r0, 7
            srl r3, r3, 3
            filld r5, r3
            add r4, r4, r5
            sub r4, r4, 1
            updatem r5, r4
            respond
            retire
        }

        on Default, Miss -> start
        on Meta, Fill -> setup
        on Data, Fill -> fill
    "#,
    )
    .expect("spgemm walker is well-formed")
}

const IMAGE_BASE: u64 = 0x100_0000;
const A_STREAM_BASE: u64 = 0x4000_0000;

fn layout_b(b: &CsrMatrix) -> MatrixLayout {
    b.layout(IMAGE_BASE)
}

/// Serialises the A-element stream (row, col, value-bits) as 24-byte
/// records for the stream engine.
fn a_stream_bytes(items: &[(u32, u32, f64)]) -> Vec<u8> {
    let mut v = Vec::with_capacity(items.len() * 24);
    for &(i, k, a) in items {
        v.extend_from_slice(&u64::from(i).to_le_bytes());
        v.extend_from_slice(&u64::from(k).to_le_bytes());
        v.extend_from_slice(&a.to_bits().to_le_bytes());
    }
    v
}

/// Runs the X-Cache (MXS) configuration: A streamed, B rows via X-Cache.
///
/// # Panics
///
/// Panics on deadlock or oracle divergence.
#[must_use]
pub fn run_xcache(workload: &SpgemmWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let mut cfg = geometry.unwrap_or_else(|| match workload.algorithm {
        Algorithm::OuterProduct => XCacheConfig::sparch(),
        Algorithm::Gustavson => XCacheConfig::gamma(),
    });
    let layout = layout_b(&workload.b);
    let items = workload.element_stream();
    let stream_img = a_stream_bytes(&items);

    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    mem.write(A_STREAM_BASE, &stream_img);
    let shared = SharedPort::new(DramModel::with_memory(DramConfig::default(), mem));

    let mut stream = StreamReader::new(
        StreamConfig {
            base: A_STREAM_BASE,
            len: stream_img.len() as u64,
            chunk_bytes: 192, // 8 elements per fetch
            lookahead: 4,
        },
        shared.handle(),
    );
    let sector_bytes = cfg.sector_bytes();
    // Rows larger than 1/8 of the data RAM bypass the cache (SpArch caps
    // its cached tile size); the datapath fetches them directly from DRAM.
    let max_row_bytes = (cfg.data_capacity_bytes() / 8).max(sector_bytes * 4);
    cfg = cfg.with_params(vec![
        layout.row_ptr_base,
        layout.pairs_base,
        sector_bytes,
        max_row_bytes,
    ]);
    assert_eq!(
        cfg.sector_bytes(),
        32,
        "walker's srl #5 assumes 32-byte sectors"
    );
    let mut xc: XCache<PortHandle<DramModel>> =
        XCache::new(cfg, walker(), shared.handle()).expect("valid spgemm instance");

    // The datapath: pops (i, k, a) elements, requests B row k, MACs the
    // returned row into the accumulator. Loads are issued ahead of the
    // MAC units draining (decoupled preload).
    let mut acc: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    let mut inflight: FxHashMap<u64, (u32, f64)> = FxHashMap::default(); // id -> (i, a)
    let mut next_id = 0u64;
    let mut pending_elem: Option<(u64, u64, u64)> = None;
    let mut now = Cycle(0);
    let mut done = 0usize;
    let total = items.len();
    let max_cycles = 10_000 * total as u64 + 2_000_000;
    let mut mac_busy_until = Cycle(0);

    // Bypass path for rows the cache refuses (empty or oversized): read
    // row_ptr, then the row, directly from DRAM.
    let mut bypass_port = shared.handle();
    enum Bypass {
        Ptr { i: u32, a: f64, k: u64 },
        Row { i: u32, a: f64, k: u64 },
    }
    let mut bypass: FxHashMap<u64, Bypass> = FxHashMap::default();
    let mut bypass_retry: Vec<(u32, f64, u64)> = Vec::new(); // (i, a, k)
    let mut next_bypass_id = 1u64 << 32;
    // SpArch keeps the current large row in a dedicated row buffer: the
    // last few bypassed rows stay resident in the datapath, so back-to-back
    // elements of the same column do not refetch a hub row.
    let mut row_buffer: std::collections::VecDeque<(u64, bytes::Bytes)> =
        std::collections::VecDeque::new();
    const ROW_BUFFER_ENTRIES: usize = 4;

    while done < total {
        {
            xcache_sim::prof_scope!("driver.ports");
            stream.tick(now);
            bypass_port.tick(now);
        }
        // Retry bypass row_ptr reads the port had no room for.
        while !bypass_retry.is_empty() && bypass_port.can_accept() {
            let (i, a, k) = bypass_retry[0];
            let req = xcache_mem::MemReq::read(next_bypass_id, layout.row_ptr_base + k * 8, 16);
            bypass_port
                .try_request(now, req)
                .expect("can_accept checked");
            bypass.insert(next_bypass_id, Bypass::Ptr { i, a, k });
            next_bypass_id += 1;
            bypass_retry.swap_remove(0);
        }
        while let Some(resp) = bypass_port.take_response(now) {
            match bypass.remove(&resp.id.0) {
                Some(Bypass::Ptr { i, a, k }) => {
                    let s = u64::from_le_bytes(resp.data[0..8].try_into().expect("ptr"));
                    let e = u64::from_le_bytes(resp.data[8..16].try_into().expect("ptr"));
                    if s == e {
                        done += 1; // genuinely empty row
                        let _ = k;
                        continue;
                    }
                    if bypass_port.can_accept() {
                        let req = xcache_mem::MemReq::read(
                            next_bypass_id,
                            layout.pairs_base + s * 16,
                            ((e - s) * 16) as u32,
                        );
                        bypass_port
                            .try_request(now, req)
                            .expect("can_accept checked");
                        bypass.insert(next_bypass_id, Bypass::Row { i, a, k });
                        next_bypass_id += 1;
                    } else {
                        // Re-read the pointer later (simpler than holding
                        // partial state; rare path).
                        bypass_retry.push((i, a, k));
                    }
                }
                Some(Bypass::Row { i, a, k }) => {
                    if row_buffer.len() == ROW_BUFFER_ENTRIES {
                        row_buffer.pop_front();
                    }
                    row_buffer.push_back((k, resp.data.clone()));
                    for pair in resp.data.chunks(16) {
                        let j = u64::from_le_bytes(pair[0..8].try_into().expect("col")) as u32;
                        let bv = f64::from_bits(u64::from_le_bytes(
                            pair[8..16].try_into().expect("val"),
                        ));
                        *acc.entry((i, j)).or_insert(0.0) += a * bv;
                    }
                    let macs = (resp.data.len() as u64 / 16).div_ceil(4);
                    mac_busy_until = mac_busy_until.max(now) + macs;
                    done += 1;
                }
                None => {}
            }
        }
        // Pop the next element (3 words) when available.
        if pending_elem.is_none() {
            if let (Some(i), Some(k), Some(a)) = {
                let i = stream.pop_word();
                if i.is_some() {
                    (i, stream.pop_word(), stream.pop_word())
                } else {
                    (None, None, None)
                }
            } {
                pending_elem = Some((i, k, a));
            }
        }
        if let Some((i, k, a)) = pending_elem {
            if xc.can_accept() {
                let access = MetaAccess::Load {
                    id: next_id,
                    key: MetaKey::new(k),
                };
                xc.try_access(now, access).expect("can_accept checked");
                inflight.insert(next_id, (i as u32, f64::from_bits(a)));
                next_id += 1;
                pending_elem = None;
            }
        }
        xc.tick(now);
        {
            xcache_sim::prof_scope!("driver.resp");
            while let Some(resp) = xc.take_response(now) {
                let (i, a) = inflight.remove(&resp.id).expect("issued");
                if !resp.found {
                    // Cache refused (empty or oversized row): bypass, unless
                    // the datapath's row buffer still holds it.
                    let k = resp.key.raw();
                    if let Some((_, data)) = row_buffer.iter().find(|(rk, _)| *rk == k) {
                        let data = data.clone();
                        for pair in data.chunks(16) {
                            let j = u64::from_le_bytes(pair[0..8].try_into().expect("col")) as u32;
                            let bv = f64::from_bits(u64::from_le_bytes(
                                pair[8..16].try_into().expect("val"),
                            ));
                            *acc.entry((i, j)).or_insert(0.0) += a * bv;
                        }
                        let macs = (data.len() as u64 / 16).div_ceil(4);
                        mac_busy_until = mac_busy_until.max(now) + macs;
                        xc.recycle(resp);
                        done += 1;
                        continue;
                    }
                    bypass_retry.push((i, a, k));
                    xc.recycle(resp);
                    continue;
                }
                if resp.found {
                    // Row data: (col, value) pairs. Trailing zero padding (from
                    // sector rounding) has col == 0 && value-bits == 0; real
                    // pairs always have nonzero value bits.
                    for pair in resp.data.chunks(2) {
                        if pair.len() < 2 || pair[1] == 0 {
                            continue;
                        }
                        let j = pair[0] as u32;
                        let bv = f64::from_bits(pair[1]);
                        *acc.entry((i, j)).or_insert(0.0) += a * bv;
                    }
                    // MAC occupancy: 4 MACs per cycle.
                    let macs = (resp.data.len() as u64 / 2).div_ceil(4);
                    mac_busy_until = mac_busy_until.max(now) + macs;
                }
                xc.recycle(resp);
                done += 1;
            }
        }
        xcache_sim::prof_scope!("driver.wake");
        now = if done >= total {
            now.next() // same end-cycle as the single-stepped loop
        } else {
            // Cheap checks first: when more work is issuable right now the
            // wake is the next cycle regardless, so the (comparatively
            // expensive) component next-event queries can be skipped.
            let issuable = (pending_elem.is_some() || stream.word_ready()) && xc.can_accept();
            let retryable = !bypass_retry.is_empty() && bypass_port.can_accept();
            if issuable || retryable {
                now.next()
            } else {
                let mut wake = xc.next_event(now);
                wake = xcache_sim::earliest(wake, stream.next_event(now));
                wake = xcache_sim::earliest(wake, bypass_port.next_event(now));
                xcache_sim::fast_forward(now, wake)
            }
        };
        if now.raw() >= max_cycles {
            eprintln!(
                "DEADLOCK: done={done}/{total} pending_elem={} inflight={} bypass={} retry={}",
                pending_elem.is_some(),
                inflight.len(),
                bypass.len(),
                bypass_retry.len()
            );
            for (k, v) in xc.stats().counters() {
                eprintln!("  {k}={v}");
            }
            panic!("spgemm x-cache run deadlocked");
        }
    }
    now = now.max(mac_busy_until);

    let got = product_checksum(
        acc.iter()
            .filter(|(_, v)| **v != 0.0)
            .map(|(&(i, j), &v)| (i, j, v)),
    );
    assert_eq!(
        got,
        workload.oracle_checksum(),
        "{} x-cache run diverged from the SpGEMM oracle",
        workload.algorithm.name()
    );
    let mut stats = xc.stats().clone();
    stats.merge(stream.stats());
    shared.with(|d| stats.merge(d.stats()));
    RunReport {
        label: "xcache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        checksum: got,
    }
}

/// Runs the sharded X-Cache topology: B's row space is interleaved across
/// `shards` controller instances by [`owner_of`], each over its
/// [`BankGroup`] view of the banked DRAM; the element stream is routed to
/// owners over crossbar links, replacing the stream engine as the pacing
/// element. Oversized/empty rows still bypass to a driver-side DRAM port,
/// serviced at horizon boundaries.
///
/// # Panics
///
/// Panics on deadlock or oracle divergence.
#[must_use]
pub fn run_xcache_sharded(
    workload: &SpgemmWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> RunReport {
    let report = drive_xcache_sharded(workload, geometry, shards)
        .expect("sharded spgemm x-cache run deadlocked");
    assert_eq!(
        report.checksum,
        workload.oracle_checksum(),
        "{} sharded x-cache run diverged from the SpGEMM oracle",
        workload.algorithm.name()
    );
    report
}

/// [`run_xcache_sharded`] for chaos runs: deadlocks come back as `Err`
/// and the oracle is not enforced (faults may legitimately drop MACs).
///
/// # Errors
///
/// Returns `Err` when the run exceeds its cycle bound.
pub fn run_xcache_sharded_chaos(
    workload: &SpgemmWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> Result<RunReport, String> {
    drive_xcache_sharded(workload, geometry, shards)
}

#[allow(clippy::too_many_lines)]
fn drive_xcache_sharded(
    workload: &SpgemmWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> Result<RunReport, String> {
    let shards = shards.max(1);
    let base = geometry.unwrap_or_else(|| match workload.algorithm {
        Algorithm::OuterProduct => XCacheConfig::sparch(),
        Algorithm::Gustavson => XCacheConfig::gamma(),
    });
    let layout = layout_b(&workload.b);
    let items = workload.element_stream();

    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);

    let mut cells: Vec<ShardCell<BankGroup>> = (0..shards)
        .map(|s| {
            let mut cfg = shard_geometry(&base, shards);
            let sector_bytes = cfg.sector_bytes();
            let max_row_bytes = (cfg.data_capacity_bytes() / 8).max(sector_bytes * 4);
            cfg = cfg.with_params(vec![
                layout.row_ptr_base,
                layout.pairs_base,
                sector_bytes,
                max_row_bytes,
            ]);
            assert_eq!(
                cfg.sector_bytes(),
                32,
                "walker's srl #5 assumes 32-byte sectors"
            );
            let bank = BankGroup::new(
                BankGroupConfig {
                    shards,
                    shard_id: s,
                    ..BankGroupConfig::default()
                },
                DramModel::with_memory(DramConfig::default(), mem.clone()),
            );
            let xc = XCache::new(cfg, walker(), bank).expect("valid spgemm shard");
            ShardCell::new(s, xc, DEFAULT_LINK_LATENCY)
        })
        .collect();

    // Route every element to its row's owner shard up front; per-shard
    // issue order is the dataflow order restricted to owned rows, so
    // column-local (SpArch) and Gustavson reuse survive sharding.
    for (idx, &(_, k, _)) in items.iter().enumerate() {
        let owner = owner_of(MetaKey::new(u64::from(k)), shards);
        cells[owner].send(
            Cycle::ZERO,
            MetaAccess::Load {
                id: idx as u64,
                key: MetaKey::new(u64::from(k)),
            },
        );
    }

    let total = items.len();
    let max_cycles = 10_000 * total as u64 + 2_000_000;
    let mut acc: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    let mut done = 0usize;
    let mut end = Cycle::ZERO;
    let mut mac_busy_until = Cycle::ZERO;
    let mut deadlocked = false;

    // Bypass path for rows the cache refuses (empty or oversized): a
    // driver-side DRAM port over the same image, serviced once per
    // horizon boundary — coarse but deterministic in both engines.
    let mut bypass_port = DramModel::with_memory(DramConfig::default(), mem);
    enum Bypass {
        Ptr { i: u32, a: f64 },
        Row { i: u32, a: f64, k: u64 },
    }
    let mut bypass: FxHashMap<u64, Bypass> = FxHashMap::default();
    let mut bypass_retry: Vec<(u32, f64, u64)> = Vec::new(); // (i, a, k)
                                                             // Rows whose pointers are already resolved but whose data read hit
                                                             // port backpressure. Held (not re-read) and issued with priority —
                                                             // at boundary granularity responses arrive in bursts, so re-reading
                                                             // pointers against the retry stream livelocks on a full port.
    let mut row_pending: Vec<(u32, f64, u64, u64, u64)> = Vec::new(); // (i, a, k, start, end)
    let mut next_bypass_id = 1u64 << 32;
    let mut row_buffer: std::collections::VecDeque<(u64, bytes::Bytes)> =
        std::collections::VecDeque::new();
    const ROW_BUFFER_ENTRIES: usize = 4;
    let mut mac = |i: u32, a: f64, pairs: &mut dyn Iterator<Item = (u32, f64)>, at: Cycle| {
        let mut n = 0u64;
        for (j, bv) in pairs {
            *acc.entry((i, j)).or_insert(0.0) += a * bv;
            n += 1;
        }
        // MAC occupancy: 4 MACs per cycle.
        mac_busy_until = mac_busy_until.max(at) + n.div_ceil(4);
    };

    run_horizons(&mut cells, Cycle::ZERO, |cells, t| {
        bypass_port.tick(t);
        while !row_pending.is_empty() && bypass_port.can_accept() {
            let (i, a, k, s, e) = row_pending[0];
            let req = xcache_mem::MemReq::read(
                next_bypass_id,
                layout.pairs_base + s * 16,
                ((e - s) * 16) as u32,
            );
            bypass_port.try_request(t, req).expect("can_accept checked");
            bypass.insert(next_bypass_id, Bypass::Row { i, a, k });
            next_bypass_id += 1;
            row_pending.swap_remove(0);
        }
        while !bypass_retry.is_empty() && bypass_port.can_accept() {
            let (i, a, k) = bypass_retry[0];
            let req = xcache_mem::MemReq::read(next_bypass_id, layout.row_ptr_base + k * 8, 16);
            bypass_port.try_request(t, req).expect("can_accept checked");
            bypass.insert(next_bypass_id, Bypass::Ptr { i, a });
            next_bypass_id += 1;
            bypass_retry.swap_remove(0);
        }
        while let Some(resp) = bypass_port.take_response(t) {
            let at = resp.completed_at.max(t);
            match bypass.remove(&resp.id.0) {
                Some(Bypass::Ptr { i, a }) => {
                    let s = u64::from_le_bytes(resp.data[0..8].try_into().expect("ptr"));
                    let e = u64::from_le_bytes(resp.data[8..16].try_into().expect("ptr"));
                    let k = (resp.addr - layout.row_ptr_base) / 8;
                    if s == e {
                        done += 1; // genuinely empty row
                        end = end.max(at);
                        continue;
                    }
                    if bypass_port.can_accept() {
                        let req = xcache_mem::MemReq::read(
                            next_bypass_id,
                            layout.pairs_base + s * 16,
                            ((e - s) * 16) as u32,
                        );
                        bypass_port.try_request(t, req).expect("can_accept checked");
                        bypass.insert(next_bypass_id, Bypass::Row { i, a, k });
                        next_bypass_id += 1;
                    } else {
                        row_pending.push((i, a, k, s, e));
                    }
                }
                Some(Bypass::Row { i, a, k }) => {
                    if row_buffer.len() == ROW_BUFFER_ENTRIES {
                        row_buffer.pop_front();
                    }
                    row_buffer.push_back((k, resp.data.clone()));
                    mac(
                        i,
                        a,
                        &mut resp.data.chunks(16).map(|pair| {
                            let j = u64::from_le_bytes(pair[0..8].try_into().expect("col")) as u32;
                            let bv = f64::from_bits(u64::from_le_bytes(
                                pair[8..16].try_into().expect("val"),
                            ));
                            (j, bv)
                        }),
                        at,
                    );
                    done += 1;
                    end = end.max(at);
                }
                None => {}
            }
        }
        for cell in cells.iter_mut() {
            while let Some((at, resp)) = cell.recv_response(t) {
                let idx = resp.id as usize;
                let (i, _, a) = items[idx];
                end = end.max(at);
                if resp.found {
                    // Row data: (col, value-bits) pairs; zero-padded tails
                    // from sector rounding have zero value bits.
                    mac(
                        i,
                        a,
                        &mut resp
                            .data
                            .chunks(2)
                            .filter(|pair| pair.len() == 2 && pair[1] != 0)
                            .map(|pair| (pair[0] as u32, f64::from_bits(pair[1]))),
                        at,
                    );
                    done += 1;
                    continue;
                }
                let k = resp.key.raw();
                if let Some((_, data)) = row_buffer.iter().find(|(rk, _)| *rk == k) {
                    let data = data.clone();
                    mac(
                        i,
                        a,
                        &mut data.chunks(16).map(|pair| {
                            let j = u64::from_le_bytes(pair[0..8].try_into().expect("col")) as u32;
                            let bv = f64::from_bits(u64::from_le_bytes(
                                pair[8..16].try_into().expect("val"),
                            ));
                            (j, bv)
                        }),
                        at,
                    );
                    done += 1;
                    continue;
                }
                bypass_retry.push((i, a, k));
            }
        }
        if done >= total {
            return None;
        }
        if t.raw() >= max_cycles {
            eprintln!(
                "DEADLOCK at {t}: busy={} next_event={:?} can_accept={}",
                bypass_port.busy(),
                bypass_port.next_event(t),
                bypass_port.can_accept()
            );
            for (k, v) in bypass_port.stats().counters() {
                eprintln!("  {k}={v}");
            }
            deadlocked = true;
            return None;
        }
        let target = horizon_target(cells, t, DEFAULT_HORIZON);
        if bypass.is_empty() && bypass_retry.is_empty() && row_pending.is_empty() {
            Some(target)
        } else {
            // Bypass work only progresses at boundaries, and the DRAM
            // model advances on exact next-event cycles — land on them.
            let mut dense = t + DEFAULT_HORIZON;
            if let Some(w) = bypass_port.next_event(t) {
                if w > t && w != Cycle::NEVER {
                    dense = dense.min(w);
                }
            }
            Some(target.min(dense))
        }
    });
    if deadlocked {
        return Err(format!(
            "sharded spgemm run exceeded {max_cycles} cycles with {done}/{total} elements done \
             (bypass in-flight {}, bypass retry {})",
            bypass.len(),
            bypass_retry.len()
        ));
    }
    let end = end.max(mac_busy_until);

    let got = product_checksum(
        acc.iter()
            .filter(|(_, v)| **v != 0.0)
            .map(|(&(i, j), &v)| (i, j, v)),
    );
    let mut stats = Stats::new();
    for cell in &cells {
        cell.merge_stats_into(&mut stats);
        cell.xcache().downstream().merge_stats_into(&mut stats);
    }
    stats.merge(bypass_port.stats());
    Ok(RunReport {
        label: format!("xcache-sharded{shards}"),
        cycles: end.raw(),
        stats: stats.snapshot(),
        checksum: got,
    })
}

/// One row-fetch through the address cache (ideal walker): read
/// `row_ptr[k]`+`row_ptr[k+1]`, then the row's pairs in 64-byte blocks.
struct RowFetch {
    row: u32,
    row_ptr_base: u64,
    pairs_base: u64,
    state: RowState,
}

enum RowState {
    PtrLo,
    PtrHi {
        start: u64,
    },
    Blocks {
        next_addr: u64,
        end_addr: u64,
        sum: u64,
    },
}

impl ProbeTask for RowFetch {
    fn advance(&mut self, last: Option<&[u8]>) -> TaskStep {
        match &mut self.state {
            RowState::PtrLo => match last {
                None => TaskStep::Read {
                    addr: self.row_ptr_base + u64::from(self.row) * 8,
                    len: 8,
                },
                Some(d) => {
                    let start = u64::from_le_bytes(d[0..8].try_into().expect("ptr"));
                    self.state = RowState::PtrHi { start };
                    TaskStep::Read {
                        addr: self.row_ptr_base + (u64::from(self.row) + 1) * 8,
                        len: 8,
                    }
                }
            },
            RowState::PtrHi { start } => match last {
                // Re-entry after port back-pressure: re-issue the read.
                None => TaskStep::Read {
                    addr: self.row_ptr_base + (u64::from(self.row) + 1) * 8,
                    len: 8,
                },
                Some(d) => {
                    let s = *start;
                    let e = u64::from_le_bytes(d[0..8].try_into().expect("ptr"));
                    if s == e {
                        return TaskStep::Done(0);
                    }
                    let start_addr = self.pairs_base + s * 16;
                    let end_addr = self.pairs_base + e * 16;
                    // Block-align the row fetch.
                    let first_block = start_addr & !63;
                    self.state = RowState::Blocks {
                        next_addr: first_block,
                        end_addr,
                        sum: 0,
                    };
                    TaskStep::Read {
                        addr: first_block,
                        len: 64,
                    }
                }
            },
            RowState::Blocks {
                next_addr,
                end_addr,
                sum,
            } => {
                if let Some(d) = last {
                    *sum = sum.wrapping_add(d.iter().map(|&b| u64::from(b)).sum::<u64>());
                    *next_addr += 64;
                }
                if *next_addr >= *end_addr {
                    TaskStep::Done(1 + *sum % 7) // nonzero completion token
                } else {
                    TaskStep::Read {
                        addr: *next_addr,
                        len: 64,
                    }
                }
            }
        }
    }
}

/// Runs the address-cache configuration with an ideal walker.
///
/// The datapath is the same dataflow (matrix A streamed from the same
/// shared DRAM, same element order, same MLP); only the storage idiom for
/// matrix B differs: every element's row fetch pays the `row_ptr` access
/// and per-block reads, even when the row is resident.
#[must_use]
pub fn run_address_cache(workload: &SpgemmWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let g = geometry.unwrap_or_else(|| match workload.algorithm {
        Algorithm::OuterProduct => XCacheConfig::sparch(),
        Algorithm::Gustavson => XCacheConfig::gamma(),
    });
    let layout = layout_b(&workload.b);
    let items = workload.element_stream();
    let stream_img = a_stream_bytes(&items);
    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    mem.write(A_STREAM_BASE, &stream_img);
    let shared = SharedPort::new(DramModel::with_memory(DramConfig::default(), mem));
    let mut stream = StreamReader::new(
        StreamConfig {
            base: A_STREAM_BASE,
            len: stream_img.len() as u64,
            chunk_bytes: 192,
            lookahead: 4,
        },
        shared.handle(),
    );
    let cache = AddressCache::new(matched_address_cache_config(&g), shared.handle());
    let total = items.len();
    let mut engine = crate::common::ProbeEngine::new(cache, Vec::new(), g.active);
    let mut now = Cycle(0);
    let max_cycles = 10_000 * total as u64 + 2_000_000;
    while engine.completed() < total {
        stream.tick(now);
        // Each streamed element gates one row-fetch task, exactly like the
        // X-Cache datapath's issue loop.
        if let Some(_i) = stream.pop_word() {
            let k = stream.pop_word().expect("stream element is 3 words");
            let _a = stream.pop_word().expect("stream element is 3 words");
            engine.push_task(RowFetch {
                row: k as u32,
                row_ptr_base: layout.row_ptr_base,
                pairs_base: layout.pairs_base,
                state: RowState::PtrLo,
            });
        }
        engine.tick(now);
        now = if engine.completed() >= total {
            now.next() // same end-cycle as the single-stepped loop
        } else {
            let mut wake = xcache_sim::earliest(engine.next_event(now), stream.next_event(now));
            if stream.word_ready() {
                wake = Some(now.next()); // next element gates a task next cycle
            }
            xcache_sim::fast_forward(now, wake)
        };
        assert!(now.raw() < max_cycles, "spgemm addr-cache run deadlocked");
    }
    let mut stats = Stats::new();
    stats.merge(engine.stats());
    stats.merge(stream.stats());
    stats.merge(engine.port().stats());
    shared.with(|d| stats.merge(d.stats()));
    RunReport {
        label: "addr-cache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        // Timing-only model: functional correctness is established by the
        // X-Cache run; reuse the oracle checksum for report symmetry.
        checksum: workload.oracle_checksum(),
    }
}

/// Runs the hardwired baseline: the DSA's custom row buffer with row-id
/// tags. Modelled as the same structural cache with the programmability
/// tax removed — every executor resource is as wide as the walker count
/// and the dispatch pipeline is free (see DESIGN.md §5, ablations).
#[must_use]
pub fn run_baseline(workload: &SpgemmWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let mut g = geometry.unwrap_or_else(|| match workload.algorithm {
        Algorithm::OuterProduct => XCacheConfig::sparch(),
        Algorithm::Gustavson => XCacheConfig::gamma(),
    });
    g.exe = g.active; // a lane per hardwired fill unit: no contention
    let mut r = run_xcache(workload, Some(g));
    r.label = "baseline".into();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(algorithm: Algorithm) -> SpgemmWorkload {
        let a = CsrMatrix::generate(96, 96, 700, SparsePattern::RMat, 11);
        SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm,
        }
    }

    fn small_geometry() -> XCacheConfig {
        XCacheConfig {
            sets: 32,
            ways: 4,
            active: 8,
            exe: 4,
            data_sectors: 512,
            ..XCacheConfig::sparch()
        }
    }

    #[test]
    fn gustavson_matches_oracle() {
        let w = small(Algorithm::Gustavson);
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        assert!(r.stats.get("xcache.hit") > 0, "column reuse must hit");
    }

    #[test]
    fn outer_product_matches_oracle_with_high_reuse() {
        let w = small(Algorithm::OuterProduct);
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        // Within a column every element after the first hits row k.
        let hits = r.stats.get("xcache.hit") + r.stats.get("xcache.waiter");
        let misses = r.stats.get("xcache.miss");
        assert!(
            hits > misses,
            "outer product should mostly reuse ({hits} hits vs {misses} misses)"
        );
    }

    #[test]
    fn sharded_run_matches_oracle_and_modes_agree() {
        use xcache_sim::{with_exec_mode, ExecMode};
        let fingerprint = |r: &RunReport| (r.cycles, r.checksum, r.stats.clone());
        for algorithm in [Algorithm::Gustavson, Algorithm::OuterProduct] {
            let w = small(algorithm);
            let run = || run_xcache_sharded(&w, Some(small_geometry()), 3);
            let r = with_exec_mode(ExecMode::Macro, run);
            assert_eq!(r.checksum, w.oracle_checksum());
            assert!(r.cycles > 0);
            assert_eq!(
                fingerprint(&with_exec_mode(ExecMode::Micro, run)),
                fingerprint(&r),
                "micro-step executor diverged from macro-step"
            );
        }
    }

    #[test]
    fn same_walker_program_both_algorithms() {
        // The portability claim: one microcode image serves both DSAs.
        let w1 = run_xcache(&small(Algorithm::Gustavson), Some(small_geometry()));
        let w2 = run_xcache(&small(Algorithm::OuterProduct), Some(small_geometry()));
        assert!(w1.cycles > 0 && w2.cycles > 0);
    }

    #[test]
    fn xcache_beats_address_cache() {
        let w = small(Algorithm::Gustavson);
        let x = run_xcache(&w, Some(small_geometry()));
        let a = run_address_cache(&w, Some(small_geometry()));
        assert!(
            x.speedup_over(&a) > 1.1,
            "meta-tags should beat per-block row walks (got {:.2})",
            x.speedup_over(&a)
        );
    }

    #[test]
    fn baseline_competitive_with_xcache() {
        let w = small(Algorithm::Gustavson);
        let x = run_xcache(&w, Some(small_geometry()));
        let b = run_baseline(&w, Some(small_geometry()));
        let ratio = b.cycles as f64 / x.cycles as f64;
        assert!(
            (0.5..=1.05).contains(&ratio),
            "hardwired baseline should be ≤ x-cache but close (ratio {ratio:.2})"
        );
    }

    #[test]
    fn empty_rows_fault_cleanly() {
        // A matrix with guaranteed-empty B rows: banded A times itself.
        let a = CsrMatrix::from_triples(8, 8, &[(0, 3, 2.0), (1, 3, 4.0), (5, 6, 1.0)]);
        let w = SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm: Algorithm::Gustavson,
        };
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        assert!(r.stats.get("xcache.walker_fault") > 0);
    }
}
