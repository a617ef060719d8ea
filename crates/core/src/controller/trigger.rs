//! Trigger stage (front-end, §4.1–§4.2).
//!
//! Monitors the DRAM response port, the delayed-event queue, and the
//! datapath access queue. Meta-tag hits are answered directly through the
//! dedicated read port; misses launch walkers, subject to the hazard
//! checks of §4.1 ③ ("routines are not triggered until all the hazard
//! conditions are eliminated").

use xcache_isa::{EventId, StateId};
use xcache_mem::MemoryPort;
use xcache_sim::{counter, Cycle, FaultKind, TraceKind};

use crate::metatag::EntryRef;
use crate::{MetaAccess, MetaKey};

use super::{XCache, MSG_WORDS, SCHED_WINDOW};

impl<D: MemoryPort> XCache<D> {
    /// Collects DRAM responses into the owning walkers' event queues.
    pub(super) fn collect_fills(&mut self, now: Cycle) {
        while let Some(resp) = self.downstream.take_response(now) {
            let Some((slot, gen)) = self.inflight.remove(&resp.id.0) else {
                continue; // stale (walker faulted); drop
            };
            if !self.arena.is_live(slot) || self.arena.gen[slot] != gen {
                continue;
            }
            let mut payload = [0u64; MSG_WORDS];
            for (i, chunk) in resp.data.chunks(8).take(MSG_WORDS).enumerate() {
                let mut b = [0u8; 8];
                b[..chunk.len()].copy_from_slice(chunk);
                payload[i] = u64::from_le_bytes(b);
            }
            self.arena.cold[slot].fill_data = Some(resp.data);
            self.arena.push_event(slot, EventId::FILL, payload);
            // Max-semantics: a fill can land while the slot's lane is
            // macro-dormant holding a future-dated progress stamp.
            self.arena.last_progress[slot] = self.arena.last_progress[slot].max(now);
            self.global_progress = self.global_progress.max(now);
            self.ctx.stats.incr_id(counter!("xcache.fill_resp"));
            self.ctx
                .trace
                .emit_with(now, TraceKind::DramResp, "xcache", || {
                    format!("slot {slot} addr {:#x}", resp.addr)
                });
        }
    }

    /// Delivers due delayed events (hash results, posted events) from the
    /// timing wheel, in deterministic (due, schedule-order) order.
    pub(super) fn deliver_delayed(&mut self, now: Cycle) {
        if self.delayed.next_due().is_none_or(|d| d > now) {
            return;
        }
        let mut buf = std::mem::take(&mut self.delayed_buf);
        self.delayed.pop_due_into(now, &mut buf);
        for &(_, (slot, gen, ev, payload)) in &buf {
            if self.arena.is_live(slot) && self.arena.gen[slot] == gen {
                self.arena.push_event(slot, ev, payload);
                self.arena.last_progress[slot] = self.arena.last_progress[slot].max(now);
                self.global_progress = self.global_progress.max(now);
            }
        }
        buf.clear();
        self.delayed_buf = buf;
    }

    /// Processes at most one datapath access per cycle.
    ///
    /// Meta hits are "handled by a dedicated read port … fully pipelined"
    /// (§4.2), so a miss that cannot launch a walker this cycle (no free
    /// X-register file) must not block younger hits. The trigger stage
    /// therefore scans a bounded window of the pending accesses and serves
    /// the first one that can make progress, never reordering two accesses
    /// to the same key.
    pub(super) fn process_access(&mut self, now: Cycle, wake_budget: &mut usize) {
        // Watchdog-aborted accesses whose backoff has elapsed re-enter
        // the replay queue first (their dues are folded into
        // `next_event`, so skip and step runs drain them on the same
        // cycles, in the same order).
        let mut refilled = false;
        if !self.delayed_replay.is_empty() {
            let mut i = 0;
            while i < self.delayed_replay.len() {
                if self.delayed_replay[i].0 <= now {
                    let (_, a) = self.delayed_replay.swap_remove(i);
                    self.replay_q.push_back(a);
                    refilled = true;
                } else {
                    i += 1;
                }
            }
        }
        // Refill the trigger-stage window from the replay queue (waiters
        // released by a retiring walker) then the datapath queue.
        while self.pending.len() < self.cfg.access_queue_depth {
            if let Some(a) = self.replay_q.pop_front() {
                self.pending.push_back(a);
            } else if let Some(a) = self.access_q.pop(now) {
                self.pending.push_back(a);
            } else {
                break;
            }
            refilled = true;
        }

        #[cfg(debug_assertions)]
        self.debug_check_blocked(now, wake_budget);
        // Dirty gate: `launch_stalled` means the last window scan failed
        // and nothing since has flipped a hazard verdict. Sites that free
        // a resource or mutate the tags reset it through one of three
        // `unblock_*` helpers, by what they can unblock: anything
        // (retire/fault/abort/backoff, shedding, degraded-mode entry,
        // `pinM`), only launches (lane release on yield, `deallocM`, idle
        // eviction — no launch happens without a free X-register file),
        // or one key (`allocM`/`insertM` — a blocked load of it may now
        // hit). Pure register/data/DRAM actions cannot change the hazard
        // checks, so a busy executor never forces a rescan. If the window
        // contents are also unchanged, rescanning would fail identically
        // — charge the stall and skip the scan.
        if self.launch_stalled && !refilled {
            debug_assert_eq!(self.blocked, self.pending.len().min(SCHED_WINDOW));
            self.ctx.stats.incr_id(counter!("xcache.launch_stall"));
            return;
        }

        if self.pending.is_empty() {
            self.launch_stalled = false;
            return;
        }
        self.probe_cache = None;
        // Head fast path: the window's first candidate is always
        // `pending[0]`, and on the vast majority of scans it serves —
        // skip the dedup-window build entirely for that case. `can_serve`
        // is deterministic and side-effect-free (its only write,
        // `probe_cache`, is key-validated by the consumer), so the scan
        // below can also skip re-checking candidate 0.
        if self.blocked == 0 {
            let head = self.pending[0];
            if self.can_serve(now, &head, wake_budget) {
                self.launch_stalled = false;
                self.pending.pop_front();
                self.serve_access(now, head, wake_budget);
                return;
            }
        }
        // Window scan: serve the first candidate (the first access of
        // each key, so two accesses to one key never reorder) that can
        // make progress. Positions before `start` are known blocked —
        // the memoised prefix, or the head just checked — and only seed
        // the dedup.
        let window = self.pending.len().min(SCHED_WINDOW);
        let start = self.blocked.max(1);
        let mut seen_keys = [MetaKey::new(0); SCHED_WINDOW];
        let mut seen = 0usize;
        let mut serve: Option<usize> = None;
        for i in 0..window {
            let access = self.pending[i];
            let key = access.key();
            if seen_keys[..seen].contains(&key) {
                continue; // per-key order preserved
            }
            seen_keys[seen] = key;
            seen += 1;
            if i >= start && self.can_serve(now, &access, wake_budget) {
                serve = Some(i);
                break;
            }
        }
        let Some(i) = serve else {
            self.launch_stalled = true;
            self.blocked = window;
            self.ctx.stats.incr_id(counter!("xcache.launch_stall"));
            return;
        };
        self.launch_stalled = false;
        let access = self.pending.remove(i).expect("index in window");
        // Everything before `i` was found blocked, and serving `i` can
        // only consume resources — except a take, which frees a way. Set
        // before the serve so any unblock it triggers still wins.
        self.blocked = if matches!(access, MetaAccess::Take { .. }) {
            0
        } else {
            i
        };
        self.serve_access(now, access, wake_budget);
    }

    /// Every resource or hazard may have changed (retire, fault, abort,
    /// watchdog backoff and shedding, degraded-mode entry, `pinM`): the
    /// next scan starts from the head.
    pub(super) fn unblock_all(&mut self) {
        self.launch_stalled = false;
        self.blocked = 0;
    }

    /// A lane or a tag way was freed (lane release on yield, `deallocM`,
    /// idle eviction). That only feeds a walker launch, and no launch
    /// happens without a free X-register file — whose release always
    /// goes through [`unblock_all`](Self::unblock_all).
    pub(super) fn unblock_launches(&mut self) {
        if self.xregs.has_free() {
            self.unblock_all();
        }
    }

    /// `key` was allocated in the tags (`allocM`, `insertM`). Besides
    /// feeding a launch, that can turn a blocked load of `key` into a
    /// hit; nothing else in the blocked prefix can flip.
    pub(super) fn unblock_key(&mut self, key: MetaKey) {
        if self.xregs.has_free()
            || self
                .pending
                .iter()
                .take(self.blocked)
                .any(|a| a.key() == key)
        {
            self.unblock_all();
        }
    }

    /// Soundness check for the blocked-prefix memo (debug builds only,
    /// run before every scan or skipped scan): every distinct-key
    /// candidate in the prefix must still be unservable, so any missing
    /// `unblock_*` call trips here.
    #[cfg(debug_assertions)]
    fn debug_check_blocked(&mut self, now: Cycle, wake_budget: &usize) {
        let saved = self.probe_cache;
        for i in 0..self.blocked {
            let access = self.pending[i];
            if self.pending.iter().take(i).any(|a| a.key() == access.key()) {
                continue;
            }
            debug_assert!(
                !self.can_serve(now, &access, wake_budget),
                "blocked-prefix candidate {i} ({access:?}) became servable without an unblock"
            );
        }
        self.probe_cache = saved;
    }

    /// Whether `access` can make progress this cycle (trigger-stage hazard
    /// check — "routines are not triggered until all the hazard conditions
    /// are eliminated", §4.1 ③).
    fn can_serve(&mut self, now: Cycle, access: &MetaAccess, wake_budget: &usize) -> bool {
        let key = access.key();
        if let Some(_slot) = self.launching.get(&key) {
            // Loads attach as waiters (always possible); stores/takes must
            // wait for the walker to finish.
            return matches!(access, MetaAccess::Load { .. });
        }
        // Degraded meta path: loads and stores are answered immediately
        // through the bypass (no walker, no tag dependence).
        if self.degraded(now) && !matches!(access, MetaAccess::Take { .. }) {
            return true;
        }
        // One fused way scan answers residency, allocatability and
        // pinned-full-ness together (it used to be up to three scans of
        // the same set). Remember where it landed: if this access is the
        // one served, `serve_access` completes the lookup via `probe_at`
        // without re-scanning the set.
        let probe = self.tags.launch_probe(key);
        self.probe_cache = Some((key, probe.hit));
        let hit = match probe.hit {
            Some(r) => !self.misfires(access, self.tags.entry(r).pinned),
            None => false,
        };
        match access {
            MetaAccess::Load { .. } if hit => true,
            MetaAccess::Take { .. } => true, // hit or definitive not-found
            // Walker launch needs the cycle's wake, a lane, an X-reg file,
            // and — unless the walker will attach to an existing entry —
            // an allocatable way in the key's set ("routines are not
            // triggered until all the hazard conditions are eliminated").
            // Permanently pinned-full sets still launch so the walker can
            // fast-fault and inform the datapath.
            _ => {
                let alloc_ok = hit || probe.can_alloc || probe.unevictable;
                *wake_budget > 0 && self.xregs.has_free() && self.free_lane().is_some() && alloc_ok
            }
        }
    }

    /// Whether the fault plan fires a meta-tag lookup misfire for this
    /// access: the probe result is suppressed, so a resident key walks
    /// again. Restricted to loads on unpinned entries — misfiring a take
    /// (or a pinned entry, whose data exists only on-chip) would strand
    /// state no later access can reach. Pure in the access id, so the
    /// hazard check and the serve see the same decision.
    fn misfires(&self, access: &MetaAccess, pinned: bool) -> bool {
        let Some(plan) = &self.fault else {
            return false;
        };
        !pinned
            && matches!(access, MetaAccess::Load { .. })
            && plan.decide(FaultKind::MetaMisfire, access.id()).is_some()
    }

    fn serve_access(&mut self, now: Cycle, access: MetaAccess, wake_budget: &mut usize) {
        let key = access.key();
        // Load-to-use is measured from dispatch (the trigger stage picked
        // the access) to response — matching how the probe-engine
        // baselines measure their per-walk latency.
        self.issue_times.insert(access.id(), now);
        if let Some(&slot) = self.launching.get(&key) {
            debug_assert!(self.arena.is_live(slot), "launching entry");
            self.arena.cold[slot].waiters.push(access);
            self.ctx.stats.incr_id(counter!("xcache.waiter"));
            return;
        }
        // Degraded meta path (can_serve agreed): answer "not found" so
        // the datapath walks the structure directly — correct, just
        // uncached — instead of relying on an unhealthy tag pipeline.
        if self.degraded(now) && !matches!(access, MetaAccess::Take { .. }) {
            match access {
                MetaAccess::Load { id, .. } => {
                    self.ctx.stats.incr_id(counter!("xcache.degraded_load"));
                    self.respond(now, id, key, false, Vec::new());
                }
                MetaAccess::Store { id, .. } => {
                    self.ctx.stats.incr_id(counter!("xcache.degraded_store"));
                    self.respond(now, id, key, false, Vec::new());
                }
                MetaAccess::Take { .. } => unreachable!("takes are not bypassed"),
            }
            return;
        }
        // One tag scan per served access: reuse the hazard check's way
        // scan when it was for this key (always, on the path through a
        // successful `can_serve` peek).
        let raw = match self.probe_cache.take() {
            Some((k, r)) if k == key => self.tags.probe_at(r, &mut self.ctx.stats),
            _ => self.tags.probe(key, &mut self.ctx.stats),
        };
        let probe = match raw {
            Some(r) if self.misfires(&access, self.tags.entry(r).pinned) => {
                self.ctx
                    .stats
                    .incr_id(counter!("xcache.fault.meta_misfire"));
                self.note_meta_strike(now);
                None
            }
            p => p,
        };
        match access {
            MetaAccess::Load { id, .. } => {
                if let Some(r) = probe {
                    let e = *self.tags.entry(r);
                    debug_assert!(!e.active, "active entry without launching record");
                    self.ctx.stats.incr_id(counter!("xcache.hit"));
                    let mut data = self.take_buf();
                    self.data.gather_into(
                        e.sector_start,
                        e.sector_count,
                        &mut data,
                        &mut self.ctx.stats,
                    );
                    self.respond(now, id, key, true, data);
                    self.ctx
                        .trace
                        .emit_with(now, TraceKind::Hit, "xcache", || format!("{key}"));
                } else {
                    self.launch(
                        now,
                        access,
                        false,
                        None,
                        [0; MSG_WORDS],
                        EventId::MISS,
                        wake_budget,
                    );
                }
            }
            MetaAccess::Store { payload, .. } => {
                let mut msg = [0u64; MSG_WORDS];
                msg[0] = payload[0];
                msg[1] = payload[1];
                if let Some(r) = probe {
                    self.ctx.stats.incr_id(counter!("xcache.store_hit"));
                    self.launch(
                        now,
                        access,
                        true,
                        Some(r),
                        msg,
                        EventId::UPDATE,
                        wake_budget,
                    );
                } else {
                    self.ctx.stats.incr_id(counter!("xcache.store_miss"));
                    self.launch(now, access, false, None, msg, EventId::UPDATE, wake_budget);
                }
            }
            MetaAccess::Take { id, .. } => {
                if let Some(r) = probe {
                    let e = self.tags.invalidate(r, &mut self.ctx.stats);
                    self.ctx.stats.incr_id(counter!("xcache.take_hit"));
                    let mut data = self.take_buf();
                    self.data.gather_into(
                        e.sector_start,
                        e.sector_count,
                        &mut data,
                        &mut self.ctx.stats,
                    );
                    if e.sector_count > 0 {
                        self.data.free(e.sector_start, e.sector_count);
                    }
                    self.respond(now, id, key, true, data);
                } else {
                    self.ctx.stats.incr_id(counter!("xcache.take_miss"));
                    self.respond(now, id, key, false, Vec::new());
                }
            }
        }
    }

    /// Launches a walker for `access`; `can_serve` already checked the
    /// resources, so failure here is a logic error.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        now: Cycle,
        access: MetaAccess,
        probe_hit: bool,
        entry: Option<EntryRef>,
        msg: [u64; MSG_WORDS],
        event: EventId,
        wake_budget: &mut usize,
    ) {
        let file = self
            .xregs
            .alloc(now)
            .expect("can_serve checked a free file");
        let slot = usize::from(file.0);
        self.arena.gen[slot] = self.arena.gen[slot].wrapping_add(1);
        if let Some(r) = entry {
            self.tags.update_entry(r, |e| e.active = true);
        }
        let state = entry.map_or(StateId::DEFAULT, |r| self.tags.entry(r).state);
        let c = &mut self.arena.cold[slot];
        c.key = access.key();
        c.entry = entry;
        c.state = if event == EventId::MISS {
            StateId::DEFAULT
        } else {
            state
        };
        c.probe_hit = probe_hit;
        c.fill_data = None;
        c.origin = access;
        c.responded = false;
        c.owns_entry = false;
        debug_assert!(c.waiters.is_empty(), "stale waiters on launch");
        c.launched_at = now;
        c.last_routine = None;
        self.arena.msg[slot] = msg;
        self.arena.in_lane[slot] = false;
        self.arena.last_progress[slot] = now;
        self.arena.activate(slot);
        self.arena.push_event(slot, event, msg);
        self.wd_earliest = self.wd_earliest.min(now + self.wd_budget);
        self.launching.insert(access.key(), slot);
        self.global_progress = self.global_progress.max(now);
        self.ctx.stats.incr_id(counter!("xcache.walker_launch"));
        if event == EventId::MISS {
            self.ctx.stats.incr_id(counter!("xcache.miss"));
            self.ctx
                .trace
                .emit_with(now, TraceKind::Miss, "xcache", || {
                    format!("{}", access.key())
                });
        }
        // Launch consumes the cycle's wake: dispatch immediately.
        *wake_budget = 0;
        self.dispatch(now, slot);
    }
}

#[cfg(test)]
mod tests {
    use crate::{MetaAccess, MetaKey, XCache, XCacheConfig};
    use xcache_isa::asm::assemble;
    use xcache_mem::{DramConfig, DramModel};
    use xcache_sim::Cycle;

    fn array_walker() -> xcache_isa::WalkerProgram {
        assemble(
            r#"
            walker t
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
        "#,
        )
        .expect("valid")
    }

    fn tiny() -> XCache<DramModel> {
        tiny_with(XCacheConfig::test_tiny().active, array_walker())
    }

    /// The tiny geometry with `active` X-register files, running `program`.
    fn tiny_with(active: usize, program: xcache_isa::WalkerProgram) -> XCache<DramModel> {
        let mut dram = DramModel::new(DramConfig::test_tiny());
        for k in 0..32u64 {
            dram.memory_mut().write_u64(0x1000 + k * 32, 9000 + k);
        }
        let cfg = XCacheConfig {
            active,
            ..XCacheConfig::test_tiny()
        }
        .with_params(vec![0x1000]);
        XCache::new(cfg, program, dram).expect("builds")
    }

    fn load(id: u64, key: u64) -> MetaAccess {
        MetaAccess::Load {
            id,
            key: MetaKey::new(key),
        }
    }

    fn run_until_response(xc: &mut XCache<DramModel>, mut now: Cycle) -> (Cycle, crate::MetaResp) {
        loop {
            xc.tick(now);
            if let Some(r) = xc.take_response(now) {
                return (now, r);
            }
            now = now.next();
            assert!(now.raw() < 100_000, "trigger stage deadlocked");
        }
    }

    #[test]
    fn miss_launches_walker_then_hit_bypasses() {
        let mut xc = tiny();
        let a = MetaAccess::Load {
            id: 1,
            key: MetaKey::new(3),
        };
        xc.try_access(Cycle(0), a).expect("queue empty");
        let (now, r) = run_until_response(&mut xc, Cycle(0));
        assert!(r.found);
        assert_eq!(r.data[0], 9003);
        assert_eq!(xc.stats().get("xcache.miss"), 1);
        assert_eq!(xc.stats().get("xcache.walker_launch"), 1);

        // Second access to the same key: pure meta-tag hit, no walker.
        let a = MetaAccess::Load {
            id: 2,
            key: MetaKey::new(3),
        };
        xc.try_access(now.next(), a).expect("queue empty");
        let (_, r) = run_until_response(&mut xc, now.next());
        assert!(r.found);
        assert_eq!(r.data[0], 9003);
        assert_eq!(xc.stats().get("xcache.hit"), 1);
        assert_eq!(
            xc.stats().get("xcache.walker_launch"),
            1,
            "no second walker"
        );
    }

    #[test]
    fn duplicate_key_loads_attach_as_waiters() {
        let mut xc = tiny();
        xc.try_access(
            Cycle(0),
            MetaAccess::Load {
                id: 1,
                key: MetaKey::new(5),
            },
        )
        .expect("queue empty");
        xc.try_access(
            Cycle(0),
            MetaAccess::Load {
                id: 2,
                key: MetaKey::new(5),
            },
        )
        .expect("queue has room");
        let mut now = Cycle(0);
        let mut got = Vec::new();
        while got.len() < 2 {
            xc.tick(now);
            while let Some(r) = xc.take_response(now) {
                got.push(r.id);
            }
            now = now.next();
            assert!(now.raw() < 100_000, "waiter never answered");
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(
            xc.stats().get("xcache.walker_launch"),
            1,
            "one walk serves both"
        );
        assert_eq!(xc.stats().get("xcache.waiter"), 1);
    }

    #[test]
    fn take_miss_answers_not_found_without_walker() {
        let mut xc = tiny();
        xc.try_access(
            Cycle(0),
            MetaAccess::Take {
                id: 9,
                key: MetaKey::new(7),
            },
        )
        .expect("queue empty");
        let (_, r) = run_until_response(&mut xc, Cycle(0));
        assert!(!r.found);
        assert_eq!(xc.stats().get("xcache.take_miss"), 1);
        assert_eq!(xc.stats().get("xcache.walker_launch"), 0);
    }

    #[test]
    fn lane_release_without_a_free_xreg_file_keeps_the_window_stalled() {
        // The walker waits on the hash unit, not DRAM, so nothing else
        // needs the cycle after its yield.
        let program = assemble(
            r#"
            walker hashed
            states Default, Wait
            events HashDone
            regs 2
            routine start {
                allocR
                allocM
                hash HashDone, key
                yield Wait
            }
            routine done {
                respond
                retire
            }
            on Default, Miss -> start
            on Wait, HashDone -> done
        "#,
        )
        .expect("valid");
        let mut xc = tiny_with(1, program);
        xc.try_access(Cycle(0), load(1, 1)).expect("queue empty");
        xc.try_access(Cycle(0), load(2, 2)).expect("queue has room");
        // Run until the only walker has yielded its lane to the hash unit.
        let mut now = Cycle(0);
        loop {
            xc.tick(now);
            if xc.arena.live_count() == 1 && xc.lanes.iter().all(Option::is_none) {
                break;
            }
            now = now.next();
            assert!(now.raw() < 1_000, "walker never yielded");
        }
        // Neither the freed lane nor the walker's own `allocM` can help
        // key 2 while the only X-register file is taken.
        assert!(xc.launch_stalled);
        assert_eq!(xc.blocked, 1);
        assert_ne!(
            xc.next_event(now),
            Some(now.next()),
            "an irrelevant lane release must not force the next cycle"
        );
        // Retirement frees the file: the blocked head launches next tick.
        while xc.stats().get("xcache.walker_retire") == 0 {
            now = now.next();
            xc.tick(now);
            assert!(now.raw() < 100_000, "walker never retired");
        }
        assert!(!xc.launch_stalled);
        assert_eq!(xc.blocked, 0);
        assert_eq!(xc.next_event(now), Some(now.next()));
        xc.tick(now.next());
        assert_eq!(xc.stats().get("xcache.walker_launch"), 2);
    }

    #[test]
    fn hit_behind_a_blocked_miss_is_served_and_the_prefix_memoised() {
        let mut xc = tiny_with(1, array_walker());
        xc.try_access(Cycle(0), load(1, 3)).expect("queue empty");
        let (mut now, _) = run_until_response(&mut xc, Cycle(0));
        // Occupy the only X-register file with a walk of key 4.
        now = now.next();
        xc.try_access(now, load(2, 4)).expect("queue empty");
        while xc.stats().get("xcache.walker_launch") < 2 {
            xc.tick(now);
            now = now.next();
            assert!(now.raw() < 100_000, "key 4 never launched");
        }
        // A miss on key 5, then a hit on key 3, queue behind it.
        xc.try_access(now, load(3, 5)).expect("queue has room");
        xc.try_access(now, load(4, 3)).expect("queue has room");
        while xc.stats().get("xcache.hit") == 0 {
            xc.tick(now);
            now = now.next();
            assert!(now.raw() < 100_000, "the hit never bypassed");
        }
        assert_eq!(xc.arena.live_count(), 1, "key 4 is still walking");
        assert_eq!(xc.pending.len(), 1);
        assert_eq!(
            xc.blocked, 1,
            "the miss ahead of the served hit stays blocked"
        );
        assert!(!xc.launch_stalled);
    }

    #[test]
    fn insertm_of_a_blocked_key_reopens_the_window() {
        // Every walk side-inserts key 4 as soon as its fill lands.
        let program = assemble(
            r#"
            walker sideins
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
                insertm 4, 4
                allocD r1, 1
                filld r1, 4
                updatem r1, r1
                respond
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
        "#,
        )
        .expect("valid");
        let mut xc = tiny_with(1, program);
        xc.try_access(Cycle(0), load(1, 3)).expect("queue empty");
        xc.try_access(Cycle(0), load(2, 4)).expect("queue has room");
        let mut now = Cycle(0);
        let mut stalled = false;
        while xc.stats().get("xcache.hit") == 0 {
            xc.tick(now);
            stalled |= xc.launch_stalled && xc.blocked == 1;
            now = now.next();
            assert!(now.raw() < 100_000, "key 4 never hit");
        }
        assert!(stalled, "key 4 was blocked on the only X-register file");
        // The insert, not the walker's retirement, reopened the scan.
        assert_eq!(xc.arena.live_count(), 1, "the key-3 walker is still live");
        assert_eq!(xc.stats().get("xcache.walker_launch"), 1);
        let mut found = None;
        while found.is_none() {
            xc.tick(now);
            while let Some(r) = xc.take_response(now) {
                if r.id == 2 {
                    found = Some(r.found);
                }
            }
            now = now.next();
            assert!(now.raw() < 100_000, "key 4 never answered");
        }
        assert_eq!(found, Some(true));
    }
}
