//! `paper_regen`: the seventeen table, figure and ablation binaries, one
//! after another as child processes, at the harness scale with as many
//! runner jobs as the host has cores. One op is one binary; a round is
//! all seventeen in a seeded order.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::report::{set_up_window, Report, Spread, BINARIES};
use crate::stats::{derive, digest_bytes, median};
use crate::trace::Trace;

/// The paper's geomean X-Cache speedup over an address cache (Fig. 14).
const PAPER_FIG14_SPEEDUP: f64 = 1.7;

/// `vars` without any `XCACHE_*` entry, plus the two knobs a paper
/// regeneration sets: the scale divisor and the runner's job count.
#[must_use]
pub fn child_env(
    vars: impl Iterator<Item = (String, String)>,
    scale: u32,
    jobs: usize,
) -> Vec<(String, String)> {
    let mut env: Vec<(String, String)> = vars.filter(|(k, _)| !k.starts_with("XCACHE_")).collect();
    env.push(("XCACHE_SCALE".into(), scale.to_string()));
    env.push(("XCACHE_JOBS".into(), jobs.to_string()));
    env
}

/// The geomean speedup over the address cache that `fig14_speedup`
/// prints, as its distance from the paper's 1.7x.
#[must_use]
pub fn fig14_err_vs_paper(stdout: &str) -> Option<f64> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("Geomean speedup vs address cache"))?;
    let value = line.split(':').nth(1)?.split_whitespace().next()?;
    let speedup: f64 = value.strip_suffix('x')?.parse().ok()?;
    Some((speedup / PAPER_FIG14_SPEEDUP - 1.0).abs())
}

/// The binaries in a seeded order (Fisher-Yates).
fn order(seed: u64, round: u64) -> Vec<&'static str> {
    let mut v = BINARIES.to_vec();
    for i in (1..v.len()).rev() {
        let j = (derive(seed, round << 8 | i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

struct Runner {
    bin_dir: PathBuf,
    work_dir: PathBuf,
    env: Vec<(String, String)>,
}

impl Runner {
    /// Runs one binary to completion and returns its stdout.
    fn run(&self, name: &str) -> Result<Vec<u8>, String> {
        let out = Command::new(self.bin_dir.join(name))
            .current_dir(&self.work_dir)
            .env_clear()
            .envs(self.env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("{name}: cannot run: {e}"))?;
        if !out.status.success() {
            return Err(format!("{name}: exited with {}", out.status));
        }
        Ok(out.stdout)
    }
}

/// Runs whole rounds until `seconds` have passed, and at least two, so
/// every binary's output is compared across reps. With `traced`, rounds
/// alternate untraced and traced.
pub fn run(bin_dir: &Path, seed: u64, seconds: f64, traced: bool, trace: &mut Trace) -> Report {
    let mut r = Report::default();
    let jobs = crate::nproc();
    let runner = Runner {
        bin_dir: bin_dir.to_owned(),
        work_dir: bin_dir.join("perfbench-regen"),
        env: child_env(std::env::vars(), crate::sim::SCALE, jobs),
    };

    // Set-up: find every binary and start the first, a table, which also
    // warms the process-spawn path before timing.
    let set_up = || {
        std::fs::create_dir_all(&runner.work_dir).map_err(|e| format!("work dir: {e}"))?;
        if let Some(b) = BINARIES.iter().find(|b| !runner.bin_dir.join(b).is_file()) {
            return Err(format!("{b}: not built"));
        }
        runner.run(BINARIES[0]).map(drop)
    };
    let before = set_up_window(&mut r.setup_s, set_up, drop);
    if !r.check(before) {
        return r;
    }

    let mut first: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    let mut untraced: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut traced_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut spread = Spread::new(budget);
    let mut round = 0u64;
    while start.elapsed() < budget || round < 2 {
        let traced_round = traced && round % 2 == 1;
        let round_start = Instant::now();
        for (i, name) in order(seed, round).into_iter().enumerate() {
            if spread.due() {
                let window = set_up_window(&mut r.setup_s, set_up, drop);
                r.check(window);
            }
            let op = round * BINARIES.len() as u64 + i as u64;
            let t0 = Instant::now();
            let out = runner.run(name);
            let dur = t0.elapsed();
            let checked = out.and_then(|stdout| match first.get(name) {
                Some(prev) if *prev != stdout => {
                    Err(format!("{name}: stdout differs from its first run"))
                }
                Some(_) => Ok(()),
                None => {
                    first.insert(name, stdout);
                    Ok(())
                }
            });
            if !r.check(checked) {
                continue;
            }
            let ms = dur.as_secs_f64() * 1e3;
            if traced_round {
                r.traced_op_ms.push(ms);
                traced_s.entry(name).or_default().push(dur.as_secs_f64());
                trace.span(&format!("bench.{name}"), op, Some("regen.round"), t0, dur);
            } else {
                r.op_ms.push(ms);
                r.timed_s += dur.as_secs_f64();
                untraced.entry(name).or_default().push(dur.as_secs_f64());
            }
        }
        if traced_round {
            trace.span(
                "regen.round",
                round,
                None,
                round_start,
                round_start.elapsed(),
            );
        }
        round += 1;
    }
    let after = set_up_window(&mut r.setup_s, set_up, drop);
    r.check(after);
    r.peak_rss_mb = crate::peak_rss_children_mb();

    if untraced.len() == BINARIES.len() {
        let regen: f64 = untraced.values().filter_map(|v| median(v)).sum();
        let reps = untraced.values().map(Vec::len).min().unwrap_or(0);
        r.note(
            "regen_s",
            regen,
            "s",
            format!("n={reps} (sum over the 17 binaries of each one's median; jobs={jobs})"),
        );
    }
    match first
        .get("fig14_speedup")
        .map(|o| fig14_err_vs_paper(&String::from_utf8_lossy(o)))
    {
        Some(Some(err)) => r.note("fig14_err_vs_paper", err, "ratio", "n=1 (exact)".into()),
        Some(None) => {
            r.check(Err("fig14_speedup: no geomean line in its output".into()));
        }
        None => {}
    }
    for (name, stdout) in &first {
        r.digests
            .push(format!("{name} stdout={:#018x}", digest_bytes(stdout)));
    }
    for (name, v) in &traced_s {
        r.layer_median(&format!("bench.{name}_s"), v);
    }
    if traced {
        if let (Some(a), Some(b)) = (median(&r.traced_op_ms), median(&r.op_ms)) {
            r.layers.insert("trace.overhead_ms".into(), a - b);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_get_only_the_regeneration_knobs() {
        let vars = [
            ("PATH", "/bin"),
            ("XCACHE_EXEC", "micro"),
            ("XCACHE_SCALE", "1"),
            ("XCACHE_JSON", "1"),
            ("HOME", "/h"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()));
        let env = child_env(vars, 10, 2);
        let want: Vec<(String, String)> = [
            ("PATH", "/bin"),
            ("HOME", "/h"),
            ("XCACHE_SCALE", "10"),
            ("XCACHE_JOBS", "2"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
        assert_eq!(env, want);
    }

    #[test]
    fn fig14_error_is_read_from_the_geomean_line() {
        let out = "Figure 14\n\nGeomean speedup vs address cache : 1.36x (paper: 1.7x)\n\
                   Geomean speedup vs baseline DSA  : 1.42x (paper: ~1x)\n";
        let err = fig14_err_vs_paper(out).expect("parsed");
        assert!((err - 0.2).abs() < 1e-12, "{err}");
        assert_eq!(fig14_err_vs_paper("no such line"), None);
    }

    #[test]
    fn each_round_runs_every_binary_once() {
        for round in 0..4 {
            let mut o = order(9, round);
            o.sort_unstable();
            let mut all = BINARIES.to_vec();
            all.sort_unstable();
            assert_eq!(o, all);
        }
        assert_ne!(order(9, 0), order(9, 1));
        assert_eq!(order(9, 0), order(9, 0));
    }
}
