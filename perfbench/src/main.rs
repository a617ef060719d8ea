//! The repository benchmark: end-to-end and per-layer metrics of the
//! X-Cache simulator on four workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one report line per figure (with unit and sample count), then
//! as its last line a JSON object with `correct`, `attempted`, `failed`
//! and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! `perfbench/README.md` says what each workload and metric measures.

mod inproc;
mod regen;
mod report;
mod sim;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Trace;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["widx_probe", "graphpulse_rw", "paper_regen", "sweep_fig18"];

/// Knobs that change what the simulator does or how it is timed. The
/// benchmark measures the default configuration, so it refuses to run
/// with any of them set.
const BEHAVIOUR_KNOBS: [&str; 12] = [
    "XCACHE_EXEC",
    "XCACHE_NO_SKIP",
    "XCACHE_PROF",
    "XCACHE_SCHED",
    "XCACHE_PAR",
    "XCACHE_PAR_THREADS",
    "XCACHE_SHARDS",
    "XCACHE_FAULT_SPEC",
    "XCACHE_FAULT_SEED",
    "XCACHE_WATCHDOG_CYCLES",
    "XCACHE_ESTIMATE_FRAC",
    "XCACHE_JSON",
];

/// The behaviour knobs among `vars`.
fn set_knobs(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    vars.map(|(k, _)| k)
        .filter(|k| BEHAVIOUR_KNOBS.contains(&k.as_str()))
        .collect()
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value} (one of {WORKLOADS:?})")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set of the largest waited-for child, in MiB.
pub fn peak_rss_children_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `u` is a writable `struct rusage` of the platform layout,
    // which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.longs[0] as f64 / 1024.0
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = set_knobs(std::env::vars());
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with behaviour knobs set: {}",
            knobs.join(" ")
        );
        return ExitCode::from(2);
    }
    let Some(bin_dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
    else {
        eprintln!("perfbench: cannot locate the build directory");
        return ExitCode::from(1);
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} git_sha={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        xcache_bench::git_sha(),
        nproc()
    );
    let mut trace = Trace::default();
    let seconds = args.seconds as f64;
    let report: Report = match args.workload.as_str() {
        "paper_regen" => regen::run(&bin_dir, args.seed, seconds, args.trace, &mut trace),
        "sweep_fig18" => sweep::run(&bin_dir, args.seed, seconds, args.trace, &mut trace),
        w => inproc::run(w, args.seed, seconds, args.trace, &mut trace),
    };
    if args.trace {
        let path = bin_dir
            .join("perfbench-trace")
            .join(format!("{}-seed{}.ndjson", args.workload, args.seed));
        match trace.write(&path) {
            Ok(()) => println!("trace {} spans written to {}", trace.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    print!("{}", report.render(args.trace));
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "widx_probe",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "widx_probe".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "widx_probe"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "widx_probe",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn behaviour_knobs_are_refused_and_others_are_not() {
        let vars = [
            ("XCACHE_EXEC", "micro"),
            ("XCACHE_SCALE", "10"),
            ("XCACHE_VERBOSE", "1"),
            ("XCACHE_PAR_THREADS", "4"),
            ("PATH", "/bin"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()));
        assert_eq!(
            set_knobs(vars),
            strings(&["XCACHE_EXEC", "XCACHE_PAR_THREADS"])
        );
    }

    #[test]
    fn resident_set_is_measured() {
        assert!(peak_rss_mb() > 0.0);
        let _ = std::process::Command::new("true").status();
        assert!(peak_rss_children_mb() > 0.0);
    }
}
