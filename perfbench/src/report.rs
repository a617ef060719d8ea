//! What one run measured, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats::{best_of, median, reportable_tail};

/// End-to-end metrics every workload reports with tracing off:
/// `(name, unit)`. The same list, with bounds, is `BENCHMARK.json`'s
/// `end_to_end`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Set-up runs in windows: one before the timed phase, [`SPREAD`] spread
/// evenly through it (between ops, outside their timing) and one after
/// it, so `setup_s`, the median of all set-ups, samples the host at ten
/// moments of the run rather than at the one or two load phases a single
/// window would meet. Each window repeats set-up for this much wall time,
/// at least [`MIN_SETUPS`] and at most [`MAX_SETUPS`] times.
const SETUP_WINDOW_S: f64 = 0.2;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SPREAD: u32 = 8;

/// When each of the [`SPREAD`] set-up windows inside the timed phase is
/// due: one at the end of each ninth of its budget.
pub struct Spread {
    start: Instant,
    step: Duration,
    done: u32,
}

impl Spread {
    /// Starts the clock of a timed phase of `budget`.
    #[must_use]
    pub fn new(budget: Duration) -> Self {
        Spread {
            start: Instant::now(),
            step: budget / (SPREAD + 1),
            done: 0,
        }
    }

    /// True when the next window is due; each one is due once.
    pub fn due(&mut self) -> bool {
        let due = self.done < SPREAD && self.start.elapsed() >= self.step * (self.done + 1);
        self.done += u32::from(due);
        due
    }
}

/// One set-up window: runs `set_up` repeatedly, appending each run's
/// seconds to `samples`, and returns the last result. Every earlier
/// result goes to `discard`; the first error ends the window.
///
/// # Errors
///
/// The first error `set_up` returns.
pub fn set_up_window<T, E>(
    samples: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<T, E>,
    mut discard: impl FnMut(T),
) -> Result<T, E> {
    let window = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let out = set_up();
        samples.push(t.elapsed().as_secs_f64());
        reps += 1;
        let done = reps >= MAX_SETUPS
            || (reps >= MIN_SETUPS && window.elapsed().as_secs_f64() >= SETUP_WINDOW_S);
        match out {
            Ok(x) if !done => discard(x),
            out => return out,
        }
    }
}

/// The paper binaries `paper_regen` runs, in the repository's order.
pub const BINARIES: [&str; 17] = [
    "tab01_taxonomy",
    "tab02_features",
    "tab03_geometry",
    "tab04_energy_params",
    "fig04_load_to_use",
    "fig07_occupancy",
    "fig14_speedup",
    "fig15_power_total",
    "fig16_power_breakdown",
    "fig17_residency_sweep",
    "fig18_param_sweep",
    "fig19_fpga_synthesis",
    "fig20_asic_area",
    "abl01_replacement",
    "abl02_hierarchy",
    "abl03_insertm",
    "abl04_prefetch",
];

/// Per-layer metrics every workload reports with tracing on:
/// `(name, unit)`, without the seventeen `bench.<binary>_s` ones, which
/// [`per_layer`] appends. A workload that does not exercise a layer
/// in-process reports it as 0 and lists it as not measured.
const LAYERS: [(&str, &str); 31] = [
    ("core.tick_ms", "ms"),
    ("core.tick_calls", "count"),
    ("core.next_event_ms", "ms"),
    ("core.next_event_calls", "count"),
    ("core.build_ms", "ms"),
    ("core.tag_reads", "count"),
    ("core.meta_hit_ratio", "ratio"),
    ("core.store_hit_ratio", "ratio"),
    ("core.actions", "count"),
    ("core.walker_launches", "count"),
    ("core.wakeups", "count"),
    ("core.waiters", "count"),
    ("core.hash_issues", "count"),
    ("core.data_writes", "count"),
    ("core.launch_stall_cycles", "cycles"),
    ("core.exec_stall_cycles", "cycles"),
    ("mem.dram_ms", "ms"),
    ("mem.dram_calls", "count"),
    ("mem.dram_requests", "count"),
    ("mem.row_hit_ratio", "ratio"),
    ("mem.bank_queue_stall", "cycles"),
    ("sim.cycles_per_tick", "cycles/tick"),
    ("dsa.sim_cycles", "cycles"),
    ("dsa.self_ms", "ms"),
    ("workloads.gen_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.cell_wall_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.fsyncs_per_job", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Every per-layer metric, `(name, unit)`, in `BENCHMARK.json` order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    out.extend(BINARIES.iter().map(|b| (format!("bench.{b}_s"), "s")));
    out
}

/// A figure printed in the report but not part of the result line:
/// name, value, unit, and how it was obtained.
#[derive(Debug, Clone)]
pub struct Note {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked ops, warm-up included.
    pub attempted: u64,
    /// Checked ops whose output was wrong, missing or not repeatable.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Host ms of each untraced op that passed its checks.
    pub op_ms: Vec<f64>,
    /// Host ms of each traced op that passed its checks.
    pub traced_op_ms: Vec<f64>,
    /// Wall seconds of the timed phase spent in untraced ops.
    pub timed_s: f64,
    /// When set, `ops_per_s` is 1000 / the mean of this many fastest
    /// untraced `op_ms` (best-of), not ops / `timed_s`.
    pub best_of: Option<usize>,
    /// One sample per set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Workload-specific end-to-end figures.
    pub notes: Vec<Note>,
    /// Per-layer values the workload measured.
    pub layers: BTreeMap<String, f64>,
    /// Exact fingerprints that must repeat for the same seed.
    pub digests: Vec<String>,
}

impl Report {
    /// Counts one checked op; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, detail: String) {
        self.notes.push(Note {
            name: name.to_owned(),
            value,
            unit,
            detail,
        });
    }

    /// Sets a per-layer value from the median of `samples`, if any.
    pub fn layer_median(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = median(samples) {
            self.layers.insert(name.to_owned(), m);
        }
    }

    /// The end-to-end values, in [`END_TO_END`] order; `None` when a
    /// value could not be measured (no op passed).
    #[must_use]
    pub fn end_to_end(&self) -> Vec<Option<f64>> {
        let ops = self.op_ms.len() as f64;
        let ops_per_s = match self.best_of {
            Some(k) => best_of(&self.op_ms, k).map(|ms| 1e3 / ms),
            None => (ops > 0.0 && self.timed_s > 0.0).then(|| ops / self.timed_s),
        };
        vec![
            ops_per_s,
            median(&self.setup_s),
            (self.peak_rss_mb > 0.0).then_some(self.peak_rss_mb),
        ]
    }

    /// The report lines: one per figure, with unit and sample count.
    #[must_use]
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let e2e = self.end_to_end();
        let n = self.op_ms.len();
        for ((name, unit), v) in END_TO_END.iter().zip(&e2e) {
            let samples = match *name {
                "setup_s" => self.setup_s.len(),
                "peak_rss_mb" => 1,
                _ => n,
            };
            let how = match (*name, self.best_of) {
                ("ops_per_s", Some(k)) => format!(" (1000 / mean ms of the {k} fastest ops)"),
                _ => String::new(),
            };
            match v {
                Some(v) => writeln!(out, "e2e {name} {v} {unit} n={samples}{how}"),
                None => writeln!(out, "e2e {name} unmeasured {unit} n=0"),
            }
            .expect("write to string");
        }
        if let Some(p50) = median(&self.op_ms) {
            let _ = writeln!(out, "e2e op_ms_p50 {p50} ms n={n}");
        }
        match reportable_tail(&self.op_ms) {
            Some(t) => writeln!(
                out,
                "e2e op_ms_p{} {} ms n={n} beyond={}",
                t.q, t.value, t.beyond
            ),
            None => writeln!(
                out,
                "e2e op_ms_p90 unreported (n={n}: fewer than ten samples would lie beyond it)"
            ),
        }
        .expect("write to string");
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "e2e fail_frac {fail_frac} ratio failed={} attempted={}",
            self.failed, self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(
                out,
                "e2e {} {} {} {}",
                note.name, note.value, note.unit, note.detail
            );
        }
        if traced {
            let mut unmeasured = Vec::new();
            for (name, unit) in per_layer() {
                match self.layers.get(&name) {
                    Some(v) => {
                        let _ = writeln!(out, "layer {name} {v} {unit}");
                    }
                    None => unmeasured.push(name),
                }
            }
            if !unmeasured.is_empty() {
                let _ = writeln!(
                    out,
                    "layer not measured on this workload (reported as 0): {}",
                    unmeasured.join(" ")
                );
            }
        }
        for d in &self.digests {
            let _ = writeln!(out, "digest {d}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "error {e}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and either the
    /// end-to-end or the per-layer metrics. A metric that could not be
    /// measured makes the run incorrect.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics: Vec<(String, f64, &str)> = Vec::new();
        let mut complete = true;
        if traced {
            for (name, unit) in per_layer() {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                metrics.push((name, v, unit));
            }
        } else {
            for ((name, unit), v) in END_TO_END.iter().zip(self.end_to_end()) {
                complete &= v.is_some();
                metrics.push(((*name).to_owned(), v.unwrap_or(0.0), unit));
            }
        }
        complete &= metrics.iter().all(|(_, v, _)| v.is_finite());
        let body = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            complete && self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_and_counts_failures() {
        let mut r = Report::default();
        assert!(r.check(Ok(())));
        assert!(!r.check(Err("boom".into())));
        r.op_ms = vec![2.0, 4.0, 3.0];
        r.timed_s = 1.5;
        r.setup_s = vec![0.5, 0.25, 0.75];
        r.peak_rss_mb = 12.5;
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(r.render(false).contains("e2e op_ms_p50 3 ms n=3"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 2, \"unit\": \"1/s\"}"));
        r.best_of = Some(2);
        assert!(r
            .result_line(false)
            .contains("\"ops_per_s\": {\"value\": 400, \"unit\": \"1/s\"}"));
        assert!(r
            .render(false)
            .contains("e2e ops_per_s 400 1/s n=3 (1000 / mean ms of the 2 fastest ops)"));
        r.best_of = None;
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 12.5, \"unit\": \"MB\"}"));
        assert!(r
            .render(false)
            .contains("e2e fail_frac 0.5 ratio failed=1 attempted=2"));

        let traced = r.result_line(true);
        for (name, _) in per_layer() {
            assert!(traced.contains(&format!("\"{name}\": ")), "{name}");
        }
    }

    #[test]
    fn set_up_window_keeps_the_last_result_and_stops_on_error() {
        let mut samples = Vec::new();
        let mut n = 0;
        let mut discarded = Vec::new();
        let last = set_up_window(
            &mut samples,
            || -> Result<u32, ()> {
                n += 1;
                Ok(n)
            },
            |x| discarded.push(x),
        );
        assert_eq!(last, Ok(samples.len() as u32));
        assert!(samples.len() >= MIN_SETUPS);
        assert_eq!(discarded.len(), samples.len() - 1);
        let mut samples = Vec::new();
        let out = set_up_window(&mut samples, || Err::<(), _>("no binary"), drop);
        assert_eq!((out, samples.len()), (Err("no binary"), 1));
    }

    #[test]
    fn spread_windows_are_due_once_each() {
        let mut now = Spread::new(Duration::ZERO);
        assert_eq!((0..20).filter(|_| now.due()).count(), SPREAD as usize);
        let mut later = Spread::new(Duration::from_secs(3600));
        assert!(!later.due());
    }

    #[test]
    fn unmeasured_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        assert!(r.check(Ok(())));
        r.setup_s = vec![0.1];
        r.peak_rss_mb = 1.0;
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
        r.op_ms = vec![1.0];
        r.timed_s = 1.0;
        assert!(r.result_line(false).starts_with("{\"correct\": true"));
    }

    #[test]
    fn names_fit_the_benchmark_file() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let file =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let listed = |section: &str| -> Vec<String> {
            let body = &file[file.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("array end")];
            body.match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').expect("quote")].to_owned()
                })
                .collect()
        };
        assert_eq!(listed("per_layer"), names);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        for n in names.iter().chain(&e2e) {
            assert!(
                n.len() <= 64
                    && n.bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            );
        }
    }
}
