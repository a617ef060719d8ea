//! `sweep_fig18`: one client drives an in-process `xcached` server on
//! loopback in a closed loop. One op is one `fig18` job (8 cells) with a
//! fresh seed, from submission until the client reads `job_done` on the
//! job's event stream.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xcache_bench::CheckpointPolicy;
use xcache_serve::http;
use xcache_serve::json::{self, Value};
use xcache_serve::{Config, Server};

use crate::report::{set_up_window, Report, Spread};
use crate::stats::{derive, digest_bytes, median};
use crate::trace::Trace;

/// Cells in one `fig18` job.
const CELLS: usize = 8;
/// Seed stream of the warm-up job, apart from the timed jobs' 0, 1, ...
const WARM_UP: u64 = 1 << 40;

/// The daemon's defaults, with a fresh state dir and one runner thread
/// per core.
fn config(state_dir: PathBuf) -> Config {
    Config {
        state_dir,
        queue_depth: 8,
        rate_burst: 16,
        rate_per_sec: 0,
        policy: CheckpointPolicy {
            retries: 2,
            backoff_ms: 50,
            timeout_ms: None,
        },
        cell_jobs: Some(crate::nproc()),
    }
}

/// Client-side times of one job, from its submission.
#[derive(Debug, Default)]
struct JobTimes {
    submitted: Duration,
    first_started: Option<Duration>,
    last_done: Option<Duration>,
    job_done: Option<Duration>,
}

/// Checks one job's event stream: every cell started once and finished
/// `done` without being answered from the journal, and the job ended
/// `done` with no failed cell.
fn check_events(events: &[(Duration, Value)], times: &mut JobTimes) -> Result<(), String> {
    let (mut started, mut done) = (0, 0);
    for (at, e) in events {
        let field = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("");
        match field("event") {
            "cell_started" => {
                started += 1;
                times.first_started.get_or_insert(*at);
            }
            "cell_done" => {
                if field("status") != "done" || !matches!(e.get("reused"), Some(Value::Bool(false)))
                {
                    return Err(format!(
                        "cell {} did not run to done: {}",
                        field("label"),
                        e.render()
                    ));
                }
                done += 1;
                times.last_done = Some(*at);
            }
            "job_done" => {
                if field("status") != "done"
                    || e.get("cells_failed").and_then(Value::as_u64) != Some(0)
                {
                    return Err(format!("job did not finish cleanly: {}", e.render()));
                }
                times.job_done = Some(*at);
            }
            _ => {}
        }
    }
    if started != CELLS || done != CELLS || times.job_done.is_none() {
        return Err(format!(
            "saw {started} cell starts, {done} cell completions and job_done={} for {CELLS} cells",
            times.job_done.is_some()
        ));
    }
    Ok(())
}

/// Submits one job, follows its events to the end, and fetches and
/// checks its result; returns the result's digest.
fn job(addr: &str, seed: u64, times: &mut JobTimes) -> Result<u64, String> {
    let spec = format!(
        "{{\"grid\":\"fig18\",\"scale\":{},\"seed\":{seed}}}",
        crate::sim::SCALE
    );
    let t0 = Instant::now();
    let (status, body) = http::request(addr, "POST", "/jobs", &[], Some(&spec))?;
    times.submitted = t0.elapsed();
    if status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let id = json::parse(&body)?
        .get("job")
        .and_then(Value::as_str)
        .ok_or("submit answer has no job id")?
        .to_owned();
    let mut events = Vec::new();
    let mut bad = None;
    let status = http::request_stream(
        addr,
        &format!("/jobs/{id}/events"),
        |line| match json::parse(line) {
            Ok(v) => events.push((t0.elapsed(), v)),
            Err(e) => bad = Some(format!("unparsable event {line}: {e}")),
        },
    )?;
    if status != 200 {
        return Err(format!("event stream answered {status}"));
    }
    if let Some(e) = bad {
        return Err(e);
    }
    check_events(&events, times)?;
    let (status, result) = http::request(addr, "GET", &format!("/jobs/{id}/result"), &[], None)?;
    if status != 200 {
        return Err(format!("result answered {status}: {result}"));
    }
    let cells = json::parse(&result)?
        .get("cells")
        .and_then(Value::as_arr)
        .map(|c| {
            c.iter()
                .filter(|c| c.get("status").and_then(Value::as_str) == Some("done"))
                .count()
        });
    if cells != Some(CELLS) {
        return Err(format!("result has {cells:?} done cells, not {CELLS}"));
    }
    Ok(digest_bytes(result.as_bytes()))
}

/// `journal_fsyncs` and the per-cell `wall_us` list from `/metrics`.
fn metrics(addr: &str) -> Result<(u64, Vec<f64>), String> {
    let (status, body) = http::request(addr, "GET", "/metrics", &[], None)?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let v = json::parse(&body)?;
    let fsyncs = v
        .get("journal_fsyncs")
        .and_then(Value::as_u64)
        .ok_or("no journal_fsyncs")?;
    let walls = v
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("no cells")?
        .iter()
        .filter_map(|c| c.get("wall_us").and_then(Value::as_u64))
        .map(|us| us as f64 / 1e3)
        .collect();
    Ok((fsyncs, walls))
}

/// Starts a server on a fresh state dir and waits until it answers.
fn spawn(state_dir: &Path) -> Result<(Server, String), String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let server = Server::spawn(config(state_dir.to_owned()), "127.0.0.1:0")
        .map_err(|e| format!("spawn: {e}"))?;
    let addr = server.addr().to_string();
    match http::request(&addr, "GET", "/healthz", &[], None) {
        Ok((200, _)) => Ok((server, addr)),
        answer => {
            stop(server, state_dir);
            Err(format!("/healthz answered {answer:?}"))
        }
    }
}

fn stop(server: Server, state_dir: &Path) {
    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// Runs jobs until `seconds` have passed; with `traced`, jobs alternate
/// untraced and traced.
pub fn run(work_dir: &Path, seed: u64, seconds: f64, traced: bool, trace: &mut Trace) -> Report {
    let mut r = Report::default();
    let state_dir = work_dir.join(format!("perfbench-state-{}", std::process::id()));
    // Set-up windows inside the timed phase start their servers here,
    // beside the live one.
    let spare_dir = work_dir.join(format!("perfbench-spare-{}", std::process::id()));
    let spawned = set_up_window(
        &mut r.setup_s,
        || spawn(&state_dir),
        |(server, _)| {
            stop(server, &state_dir);
        },
    );
    let (server, addr) = match spawned {
        Ok(live) => live,
        Err(e) => {
            r.check(Err(e));
            return r;
        }
    };

    let warm = job(&addr, derive(seed, WARM_UP), &mut JobTimes::default()).map(drop);
    r.check(warm);
    let before = metrics(&addr);
    let mut parts: [Vec<f64>; 3] = Default::default(); // submit, queue, tail
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut spread = Spread::new(budget);
    let mut i = 0u64;
    while start.elapsed() < budget {
        if spread.due() {
            let window = set_up_window(
                &mut r.setup_s,
                || spawn(&spare_dir),
                |(server, _)| stop(server, &spare_dir),
            );
            r.check(window.map(|(server, _)| stop(server, &spare_dir)));
        }
        let traced_op = traced && i % 2 == 1;
        let mut times = JobTimes::default();
        let t0 = Instant::now();
        let out = job(&addr, derive(seed, i), &mut times);
        let dur = t0.elapsed();
        if let Ok(d) = &out {
            r.digests.push(format!("job={i} result={d:#018x}"));
        }
        if r.check(out.map(drop)) {
            let ms = dur.as_secs_f64() * 1e3;
            if traced_op {
                r.traced_op_ms.push(ms);
                record(trace, i, t0, dur, &times, &mut parts);
            } else {
                r.op_ms.push(ms);
                r.timed_s += dur.as_secs_f64();
            }
        }
        i += 1;
    }
    let after = metrics(&addr);
    r.peak_rss_mb = crate::peak_rss_mb();
    stop(server, &state_dir);
    let again = set_up_window(
        &mut r.setup_s,
        || spawn(&state_dir),
        |(server, _)| {
            stop(server, &state_dir);
        },
    );
    r.check(again.map(|(server, _)| stop(server, &state_dir)));

    if r.timed_s > 0.0 {
        r.note(
            "cells_per_s",
            (r.op_ms.len() * CELLS) as f64 / r.timed_s,
            "1/s",
            format!("n={} jobs of {CELLS} cells", r.op_ms.len()),
        );
    }
    match (before, after) {
        (Ok((f0, w0)), Ok((f1, w1))) => {
            r.layer_median("serve.cell_wall_ms", &w1[w0.len().min(w1.len())..]);
            if i > 0 {
                r.layers
                    .insert("serve.fsyncs_per_job".into(), (f1 - f0) as f64 / i as f64);
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            r.check(Err(e));
        }
    }
    if traced {
        for (name, v) in ["serve.submit_ms", "serve.queue_ms", "serve.tail_ms"]
            .iter()
            .zip(&parts)
        {
            r.layer_median(name, v);
        }
        if let (Some(a), Some(b)) = (median(&r.traced_op_ms), median(&r.op_ms)) {
            r.layers.insert("trace.overhead_ms".into(), a - b);
        }
    }
    r
}

/// Records a traced job's spans: submission, the wait for its first
/// cell, the cells, and the tail from the last cell to `job_done`.
fn record(
    trace: &mut Trace,
    op: u64,
    t0: Instant,
    dur: Duration,
    t: &JobTimes,
    parts: &mut [Vec<f64>; 3],
) {
    trace.span("serve.job", op, None, t0, dur);
    let (Some(first), Some(last), Some(end)) = (t.first_started, t.last_done, t.job_done) else {
        return;
    };
    let spans = [
        ("serve.submit", Duration::ZERO, t.submitted),
        ("serve.queue", t.submitted, first),
        ("serve.cells", first, last),
        ("serve.tail", last, end),
    ];
    for (name, from, to) in spans {
        trace.span(
            name,
            op,
            Some("serve.job"),
            t0 + from,
            to.saturating_sub(from),
        );
    }
    parts[0].push(t.submitted.as_secs_f64() * 1e3);
    parts[1].push(first.saturating_sub(t.submitted).as_secs_f64() * 1e3);
    parts[2].push(end.saturating_sub(last).as_secs_f64() * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(lines: &[&str]) -> Vec<(Duration, Value)> {
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                (
                    Duration::from_millis(i as u64),
                    json::parse(l).expect("event"),
                )
            })
            .collect()
    }

    fn clean_job() -> Vec<String> {
        let mut v = Vec::new();
        for i in 0..CELLS {
            v.push(format!(
                "{{\"event\":\"cell_started\",\"index\":{i},\"attempt\":1}}"
            ));
            v.push(format!(
                "{{\"event\":\"cell_done\",\"index\":{i},\"label\":\"c{i}\",\"status\":\"done\",\"reused\":false}}"
            ));
        }
        v.push(
            "{\"event\":\"job_done\",\"status\":\"done\",\"cells_done\":8,\"cells_failed\":0}"
                .into(),
        );
        v
    }

    #[test]
    fn a_clean_job_passes_and_is_timed() {
        let lines = clean_job();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut t = JobTimes::default();
        check_events(&events(&refs), &mut t).expect("clean job");
        assert_eq!(t.first_started, Some(Duration::from_millis(0)));
        assert_eq!(t.last_done, Some(Duration::from_millis(15)));
        assert_eq!(t.job_done, Some(Duration::from_millis(16)));
    }

    #[test]
    fn reused_failed_retried_or_unfinished_jobs_fail() {
        let base = clean_job();
        let fails = |edit: &dyn Fn(&mut Vec<&str>)| {
            let mut lines: Vec<&str> = base.iter().map(String::as_str).collect();
            edit(&mut lines);
            check_events(&events(&lines), &mut JobTimes::default()).is_err()
        };
        assert!(fails(&|l| {
            l[1] = "{\"event\":\"cell_done\",\"label\":\"c0\",\"status\":\"done\",\"reused\":true}";
        }));
        assert!(fails(&|l| {
            l[3] =
                "{\"event\":\"cell_done\",\"label\":\"c1\",\"status\":\"failed\",\"reused\":false}";
        }));
        assert!(fails(&|l| l.insert(
            2,
            "{\"event\":\"cell_started\",\"index\":0,\"attempt\":2}"
        )));
        assert!(fails(&|l| {
            l.pop();
        }));
        assert!(!fails(&|l| l.push("{\"event\":\"state\"}")));
    }
}
