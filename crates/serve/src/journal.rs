//! Durable sweep journal: one directory per job under the state dir.
//!
//! Layout:
//!
//! ```text
//! <state_dir>/<job_id>/
//!   manifest.json   # schema, job spec, seed, env knobs, git SHA — written once, atomically
//!   cells.log       # append-only checksummed records, fsync'd per terminal cell
//!   result.json     # final assembled output — written atomically when the job finishes
//! ```
//!
//! `cells.log` lines are `x1 <16-hex-checksum> <compact-json>\n`. Two
//! record kinds share the log: `{"t":"exec",...}` marks an execution
//! attempt starting (the cell-execution counter resume tests audit),
//! and `{"t":"cell",...}` is a terminal result. Terminal records are
//! fsync'd *before* the runner publishes the result — durability before
//! visibility — so a SIGKILL can lose at most in-flight work, never
//! recorded work.
//!
//! Recovery replays the longest valid prefix: the first line that is
//! truncated, fails its checksum, or does not parse ends the replay,
//! and the file is truncated back to the last valid byte so appends
//! continue from a clean state. Simulations are deterministic, so
//! re-running the (few) cells past the salvage point reproduces their
//! payloads byte for byte — corruption costs work, never correctness.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xcache_bench::{CellOutcome, CellStatus, CheckpointStore};

use crate::json::{self, json_str, Value};

/// Journal schema version; a mismatch is an explicit error, never a
/// guessed resume.
pub const SCHEMA: &str = "xcache-journal/1";

/// Process-wide count of journal `sync_all` calls, surfaced by the
/// server's `/metrics` endpoint (durability work is the service's main
/// per-cell overhead, so operators want it visible).
static FSYNC_COUNT: AtomicU64 = AtomicU64::new(0);

fn note_fsync() {
    FSYNC_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Number of journal fsyncs performed by this process so far.
#[must_use]
pub fn fsync_count() -> u64 {
    FSYNC_COUNT.load(Ordering::Relaxed)
}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The manifest is missing, unparseable, or has the wrong schema.
    /// The job directory cannot be trusted; the caller restarts from
    /// scratch (or surfaces the error) instead of resuming.
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt(why) => write!(f, "journal corrupt: {why}"),
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What replaying `cells.log` recovered.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Terminal cell records recovered.
    pub cells: usize,
    /// Execution-attempt records seen.
    pub execs: usize,
    /// Bytes discarded past the last valid record (0 on a clean log).
    pub discarded: u64,
}

/// An open per-job journal. Implements [`CheckpointStore`] so
/// `Runner::run_with_checkpoint` journals directly.
pub struct Journal {
    dir: PathBuf,
    file: Mutex<File>,
    cells: Mutex<HashMap<String, Result<String, String>>>,
}

/// splitmix64 folded over the record bytes — the workspace's standard
/// mixer, used here as a corruption (not adversary) detector.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15_u64;
    for &b in bytes {
        h = xcache_core::splitmix64(h ^ u64::from(b));
    }
    h
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("cells.log")
}

/// Atomically writes `bytes` to `dir/name` (temp file + fsync + rename
/// + directory fsync), so readers never observe a partial file.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        note_fsync();
    }
    fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()?;
    note_fsync();
    Ok(())
}

fn encode_line(payload: &str) -> String {
    format!("x1 {:016x} {payload}\n", checksum(payload.as_bytes()))
}

/// Decodes one log line (without trailing newline); `None` if the
/// frame or checksum is invalid.
fn decode_line(line: &str) -> Option<Value> {
    let rest = line.strip_prefix("x1 ")?;
    let (hex, payload) = rest.split_at_checked(16)?;
    let payload = payload.strip_prefix(' ')?;
    let want = u64::from_str_radix(hex, 16).ok()?;
    if checksum(payload.as_bytes()) != want {
        return None;
    }
    json::parse(payload).ok()
}

impl Journal {
    /// Creates a fresh journal: job directory, manifest, empty log. The
    /// manifest must carry `"schema"` = [`SCHEMA`] (the caller builds it
    /// via [`manifest_value`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(dir: &Path, manifest: &Value) -> Result<Journal, JournalError> {
        fs::create_dir_all(dir)?;
        write_atomic(dir, "manifest.json", manifest.render().as_bytes())?;
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(log_path(dir))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file: Mutex::new(file),
            cells: Mutex::new(HashMap::new()),
        })
    }

    /// Opens an existing journal for resume: validates the manifest,
    /// replays the valid prefix of `cells.log`, truncates any damaged
    /// tail, and positions the log for appends.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] when the manifest is missing/garbled or
    /// its schema does not match — the caller must not resume from it.
    pub fn open(dir: &Path) -> Result<(Value, Journal, ReplayStats), JournalError> {
        let manifest_raw = fs::read_to_string(manifest_path(dir))
            .map_err(|e| JournalError::Corrupt(format!("manifest unreadable: {e}")))?;
        let manifest = json::parse(&manifest_raw)
            .map_err(|e| JournalError::Corrupt(format!("manifest unparseable: {e}")))?;
        match manifest.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(JournalError::Corrupt(format!(
                    "schema mismatch: found `{other}`, need `{SCHEMA}`"
                )))
            }
            None => return Err(JournalError::Corrupt("manifest has no schema field".into())),
        }

        let mut raw = Vec::new();
        if let Ok(mut f) = File::open(log_path(dir)) {
            f.read_to_end(&mut raw)?;
        }
        let mut cells = HashMap::new();
        let mut stats = ReplayStats::default();
        let mut valid_len = 0usize;
        let mut at = 0usize;
        while at < raw.len() {
            // A record is only valid if its newline made it to disk —
            // a partial final line is torn, not trusted.
            let Some(nl) = raw[at..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let Ok(line) = std::str::from_utf8(&raw[at..at + nl]) else {
                break;
            };
            let Some(rec) = decode_line(line) else {
                break;
            };
            match rec.get("t").and_then(Value::as_str) {
                Some("exec") => stats.execs += 1,
                Some("cell") => {
                    let Some(label) = rec.get("label").and_then(Value::as_str) else {
                        break;
                    };
                    let result = match rec.get("status").and_then(Value::as_str) {
                        Some("done") => match rec.get("value") {
                            Some(v) => Ok(v.render()),
                            None => break,
                        },
                        Some("failed") => match rec.get("reason").and_then(Value::as_str) {
                            Some(r) => Err(r.to_owned()),
                            None => break,
                        },
                        _ => break,
                    };
                    // First record wins: a cell is committed at most
                    // once per run, and replay trusts the earliest.
                    if !cells.contains_key(label) {
                        cells.insert(label.to_owned(), result);
                        stats.cells += 1;
                    }
                }
                _ => break,
            }
            at += nl + 1;
            valid_len = at;
        }
        stats.discarded = (raw.len() - valid_len) as u64;

        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(log_path(dir))?;
        file.set_len(valid_len as u64)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        if stats.discarded > 0 {
            file.sync_all()?;
            note_fsync();
        }
        Ok((
            manifest,
            Journal {
                dir: dir.to_path_buf(),
                file: Mutex::new(file),
                cells: Mutex::new(cells),
            },
            stats,
        ))
    }

    /// The job directory this journal lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of terminal cells currently recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.lock().expect("journal lock").len()
    }

    /// Whether no terminal cells are recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn append(&self, payload: &str, durable: bool) {
        let line = encode_line(payload);
        let mut f = self.file.lock().expect("journal file lock");
        // A full disk degrades durability, not correctness: the cell
        // re-runs after restart and reproduces the same bytes.
        let _ = f.write_all(line.as_bytes());
        if durable {
            let _ = f.sync_all();
            note_fsync();
        }
    }

    /// Writes the final assembled job output atomically as
    /// `result.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_result(&self, bytes: &[u8]) -> std::io::Result<()> {
        write_atomic(&self.dir, "result.json", bytes)
    }

    /// The final output written by [`write_result`](Self::write_result),
    /// if the job already finished.
    #[must_use]
    pub fn read_result(&self) -> Option<String> {
        fs::read_to_string(self.dir.join("result.json")).ok()
    }
}

impl CheckpointStore for Journal {
    fn lookup(&self, label: &str) -> Option<Result<String, String>> {
        self.cells.lock().expect("journal lock").get(label).cloned()
    }

    fn commit(&self, outcome: &CellOutcome) {
        let (payload, result) = match &outcome.status {
            CellStatus::Done(v) => (
                // `v` is the cell's JSON payload; embed it raw so the
                // record (and the final output assembled from it) is
                // byte-identical to the uninterrupted run's.
                format!(
                    "{{\"t\":\"cell\",\"label\":{},\"status\":\"done\",\"value\":{v}}}",
                    json_str(&outcome.label)
                ),
                Ok(v.clone()),
            ),
            CellStatus::Failed(reason) => (
                format!(
                    "{{\"t\":\"cell\",\"label\":{},\"status\":\"failed\",\"reason\":{}}}",
                    json_str(&outcome.label),
                    json_str(reason)
                ),
                Err(reason.clone()),
            ),
            CellStatus::Pending => return,
        };
        self.append(&payload, true);
        self.cells
            .lock()
            .expect("journal lock")
            .insert(outcome.label.clone(), result);
    }

    fn started(&self, index: usize, label: &str, attempt: u32) {
        // Exec markers are the resume audit trail ("did a completed
        // cell re-execute?"); losing one to a crash only means the
        // attempt is re-counted, so no fsync.
        self.append(
            &format!(
                "{{\"t\":\"exec\",\"index\":{index},\"label\":{},\"attempt\":{attempt}}}",
                json_str(label)
            ),
            false,
        );
    }
}

/// Builds the standard manifest object: schema version, job id, the
/// normalized job spec, and the environment fingerprint (git SHA plus
/// the env knobs that shape results).
#[must_use]
pub fn manifest_value(job_id: &str, spec: &Value) -> Value {
    let knobs = ["XCACHE_FAULT_SPEC", "XCACHE_FAULT_SEED"]
        .iter()
        .filter_map(|k| {
            std::env::var(k)
                .ok()
                .map(|v| ((*k).to_owned(), Value::Str(v)))
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("job".into(), Value::Str(job_id.into())),
        ("spec".into(), spec.clone()),
        ("git_sha".into(), Value::Str(xcache_bench::git_sha())),
        ("env".into(), Value::Obj(knobs)),
    ])
}

/// Job directories under `state_dir`, sorted by name for deterministic
/// startup resume order.
#[must_use]
pub fn list_jobs(state_dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = fs::read_dir(state_dir) else {
        return Vec::new();
    };
    let mut jobs: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter(|e| e.path().is_dir() && manifest_path(&e.path()).exists())
        .filter_map(|e| e.file_name().into_string().ok().map(|n| (n, e.path())))
        .collect();
    jobs.sort();
    jobs
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("cells", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_bench::CellStatus;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xcache-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn done(label: &str, value: &str) -> CellOutcome {
        CellOutcome {
            index: 0,
            label: label.into(),
            status: CellStatus::Done(value.into()),
            attempts: 1,
            reused: false,
        }
    }

    #[test]
    fn create_commit_reopen_replays() {
        let dir = tmpdir("roundtrip");
        let spec = json::parse(r#"{"grid":"fig18","seed":7}"#).unwrap();
        let j = Journal::create(&dir, &manifest_value("job-a", &spec)).unwrap();
        j.started(0, "c0", 1);
        j.commit(&done("c0", r#"{"v":1}"#));
        j.commit(&CellOutcome {
            index: 1,
            label: "c1".into(),
            status: CellStatus::Failed("boom".into()),
            attempts: 3,
            reused: false,
        });
        drop(j);

        let (manifest, j2, stats) = Journal::open(&dir).unwrap();
        assert_eq!(manifest.get("job").and_then(Value::as_str), Some("job-a"));
        assert_eq!(
            manifest
                .get("spec")
                .and_then(|s| s.get("grid"))
                .and_then(Value::as_str),
            Some("fig18")
        );
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.execs, 1);
        assert_eq!(stats.discarded, 0);
        assert_eq!(j2.lookup("c0"), Some(Ok(r#"{"v":1}"#.into())));
        assert_eq!(j2.lookup("c1"), Some(Err("boom".into())));
        assert_eq!(j2.lookup("c2"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = tmpdir("torn");
        let spec = json::parse("{}").unwrap();
        let j = Journal::create(&dir, &manifest_value("job-b", &spec)).unwrap();
        j.commit(&done("c0", r#"{"v":0}"#));
        drop(j);
        // Simulate a crash mid-append: a torn final line.
        let mut f = OpenOptions::new()
            .append(true)
            .open(log_path(&dir))
            .unwrap();
        f.write_all(b"x1 0123456789abcdef {\"t\":\"cell\",\"label\":\"c1")
            .unwrap();
        drop(f);

        let (_, j2, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.cells, 1);
        assert!(stats.discarded > 0);
        assert_eq!(j2.lookup("c1"), None);
        // Appends land after the salvage point and replay cleanly.
        j2.commit(&done("c1", r#"{"v":1}"#));
        drop(j2);
        let (_, j3, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.discarded, 0);
        assert_eq!(j3.lookup("c1"), Some(Ok(r#"{"v":1}"#.into())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_ends_replay() {
        let dir = tmpdir("bitrot");
        let spec = json::parse("{}").unwrap();
        let j = Journal::create(&dir, &manifest_value("job-c", &spec)).unwrap();
        j.commit(&done("c0", r#"{"v":0}"#));
        j.commit(&done("c1", r#"{"v":1}"#));
        drop(j);
        // Flip a payload byte in the first record; both records must be
        // rejected (replay stops at the first bad line).
        let mut raw = fs::read(log_path(&dir)).unwrap();
        let pos = raw.iter().position(|&b| b == b'v').unwrap();
        raw[pos] = b'w';
        fs::write(log_path(&dir), &raw).unwrap();

        let (_, j2, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.cells, 0);
        assert!(stats.discarded > 0);
        assert!(j2.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_explicit_error() {
        let dir = tmpdir("schema");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            manifest_path(&dir),
            br#"{"schema":"xcache-journal/99","job":"x","spec":{}}"#,
        )
        .unwrap();
        match Journal::open(&dir) {
            Err(JournalError::Corrupt(why)) => assert!(why.contains("schema mismatch")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_manifest_is_explicit_error() {
        let dir = tmpdir("garble");
        fs::create_dir_all(&dir).unwrap();
        fs::write(manifest_path(&dir), b"{not json").unwrap();
        assert!(matches!(Journal::open(&dir), Err(JournalError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
