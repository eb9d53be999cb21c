//! Durable outcome journal: append-only JSONL checkpoints for `audit-dir`.
//!
//! A sweep over a wild corpus runs for hours; losing the whole run to one
//! supervisor SIGKILL is not acceptable (ROADMAP item 1). The journal
//! records each **completed** campaign's outcome as one self-describing,
//! digest-protected JSON line, so a later `--resume` run can restore those
//! slots verbatim and re-run only the unfinished campaigns — emitting an
//! aggregate report byte-identical to an undisturbed run, because every
//! deterministic field travels through the record.
//!
//! # Format
//!
//! Line 1 is the header, binding the journal to one exact sweep:
//!
//! ```text
//! {"v":2,"kind":"wasai-journal","seed":5,"campaigns":6,"corpus":"a1b2…"}
//! ```
//!
//! `corpus` is an FNV-1a digest over the sorted contract names, so a
//! journal can never be resumed against a different directory, seed, or
//! corpus size. Each subsequent line is one [`OutcomeRecord`]:
//!
//! ```text
//! {"v":2,"index":3,"contract":"c.wasm","outcome":"ok","stage":"-",
//!  "detail":"","seed":6,"truncated":false,"branches":14,"findings":"",
//!  "virtual_us":812345,"iterations":64,"smt_queries":3,"exec_us":800000,
//!  "solve_us":12345,"elapsed_ms":17,"digest":"9f0e…"}
//! ```
//!
//! `digest` covers every deterministic field (everything except
//! `elapsed_ms`, which is wall clock); a record whose digest does not
//! re-derive is rejected, so a torn or bit-rotted line can never smuggle a
//! wrong outcome into a resumed report.
//!
//! # Atomicity and durability contract
//!
//! - The header is written to a `<path>.tmp` sibling, fsync'd, and
//!   **renamed** into place (then the directory is fsync'd) by
//!   [`wasai_obs::record::write_atomic`], so a journal either exists with a
//!   valid header or not at all.
//! - Records are appended as one `write` each and fsync'd (`sync_data`)
//!   per append: after [`Journal::append`] returns, that outcome survives a
//!   process kill *and* a power cut.
//! - The parser tolerates exactly one torn write: a **final** line without
//!   a trailing newline, or an unparsable final line (including one cut
//!   inside a multi-byte UTF-8 character), is dropped (and
//!   truncated away before new appends). Corruption anywhere earlier is a
//!   hard error — silent data loss in the middle of a journal means the
//!   file is not what we wrote, and resuming from it would lie.
//!
//! Campaigns lost to a worker crash are **not** journaled: `crashed` is a
//! statement about the fleet, not the contract, so a resume gives those
//! campaigns a fresh chance instead of pinning the crash into the report.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use wasai_obs::record::write_atomic;
use wasai_obs::Fnv;

use crate::telemetry::{json_escape, parse_json_fields};

/// Journal format version; bumped on any incompatible change.
///
/// v2 added the per-campaign timeline fields (`iterations`,
/// `smt_queries`, `exec_us`, `solve_us`) feeding the audit timelines and
/// the `--profile-out` folded stacks.
pub const JOURNAL_VERSION: u64 = 2;

/// Digest over the sorted contract names — the journal's corpus identity.
pub fn corpus_digest(names: &[String]) -> u64 {
    let mut h = Fnv::new();
    for n in names {
        h.field(n.as_bytes());
    }
    h.finish()
}

/// The sweep identity a journal is bound to (header line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Sweep seed (campaign seeds derive from it by index).
    pub seed: u64,
    /// Number of campaigns in the sweep (sorted corpus size).
    pub campaigns: usize,
    /// [`corpus_digest`] over the sorted contract names.
    pub corpus: u64,
}

impl JournalMeta {
    /// The meta for a sweep of `names` (already sorted) at `seed`.
    pub fn new(seed: u64, names: &[String]) -> JournalMeta {
        JournalMeta {
            seed,
            campaigns: names.len(),
            corpus: corpus_digest(names),
        }
    }

    fn header_line(&self) -> String {
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"wasai-journal\",\"seed\":{},\"campaigns\":{},\"corpus\":\"{:016x}\"}}",
            self.seed, self.campaigns, self.corpus,
        )
    }

    fn parse(line: &str) -> Result<JournalMeta, String> {
        let f = parse_json_fields(line).map_err(|e| format!("journal header: {e}"))?;
        let num = |key: &str| {
            f.get(key)
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("journal header: missing numeric field {key:?}"))
        };
        let kind = f.get("kind").and_then(|v| v.as_str()).unwrap_or_default();
        if kind != "wasai-journal" {
            return Err(format!(
                "journal header: kind {kind:?} is not \"wasai-journal\""
            ));
        }
        let v = num("v")?;
        if v != JOURNAL_VERSION {
            return Err(format!(
                "journal header: version {v} unsupported (expected {JOURNAL_VERSION})"
            ));
        }
        let corpus = f
            .get("corpus")
            .and_then(|v| v.as_str())
            .ok_or("journal header: missing corpus digest")
            .and_then(|s| {
                u64::from_str_radix(s, 16).map_err(|_| "journal header: bad corpus digest")
            })
            .map_err(str::to_string)?;
        Ok(JournalMeta {
            seed: num("seed")?,
            campaigns: num("campaigns")? as usize,
            corpus,
        })
    }
}

/// One completed campaign's outcome, with every field the aggregate report
/// needs to render that campaign's verdict and triage lines byte-for-byte.
///
/// This is also the wire format of the supervised fleet's status protocol:
/// workers print one record line per completed campaign, the supervisor
/// parses (digest-checking) and re-emits them into the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeRecord {
    /// Campaign index in the sorted corpus.
    pub index: usize,
    /// Contract file name.
    pub contract: String,
    /// Outcome tag: `ok`, `failed`, `panicked`, `timed-out`, or `crashed`.
    pub outcome: String,
    /// Stage the campaign died in (`-` for successes).
    pub stage: String,
    /// Failure detail (empty for successes).
    pub detail: String,
    /// The campaign's repro seed (`sweep_seed ^ index`).
    pub seed: u64,
    /// Whether the report was truncated by the deadline watchdog.
    pub truncated: bool,
    /// Branches covered (0 for non-ok outcomes).
    pub branches: u64,
    /// Vulnerability classes found, display-joined with `", "` (empty for
    /// clean or non-ok campaigns) — exactly the verdict line's rendering.
    pub findings: String,
    /// Virtual microseconds the campaign simulated (0 for non-ok).
    pub virtual_us: u64,
    /// Fuzz iterations the campaign ran (0 for non-ok).
    pub iterations: u64,
    /// SMT queries the campaign issued (0 for non-ok).
    pub smt_queries: u64,
    /// Virtual microseconds charged to execution (0 for non-ok). With
    /// `solve_us` this partitions `virtual_us` — the clock only advances
    /// through execution and solver charges.
    pub exec_us: u64,
    /// Virtual microseconds charged to the SMT solver (0 for non-ok).
    pub solve_us: u64,
    /// Wall-clock milliseconds the campaign consumed. Excluded from the
    /// digest: wall clock is honest history, not identity.
    pub elapsed_ms: u64,
}

impl OutcomeRecord {
    /// True when the campaign completed and produced a report.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok"
    }

    /// Digest over the deterministic fields (everything but `elapsed_ms`).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.field(self.index.to_string().as_bytes());
        h.field(self.contract.as_bytes());
        h.field(self.outcome.as_bytes());
        h.field(self.stage.as_bytes());
        h.field(self.detail.as_bytes());
        h.field(self.seed.to_string().as_bytes());
        h.field(&[u8::from(self.truncated)]);
        h.field(self.branches.to_string().as_bytes());
        h.field(self.findings.as_bytes());
        h.field(self.virtual_us.to_string().as_bytes());
        h.field(self.iterations.to_string().as_bytes());
        h.field(self.smt_queries.to_string().as_bytes());
        h.field(self.exec_us.to_string().as_bytes());
        h.field(self.solve_us.to_string().as_bytes());
        h.finish()
    }

    /// Render the record as its journal/wire line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"index\":{},\"contract\":\"{}\",\"outcome\":\"{}\",\"stage\":\"{}\",\"detail\":\"{}\",\"seed\":{},\"truncated\":{},\"branches\":{},\"findings\":\"{}\",\"virtual_us\":{},\"iterations\":{},\"smt_queries\":{},\"exec_us\":{},\"solve_us\":{},\"elapsed_ms\":{},\"digest\":\"{:016x}\"}}",
            self.index,
            json_escape(&self.contract),
            self.outcome,
            self.stage,
            json_escape(&self.detail),
            self.seed,
            self.truncated,
            self.branches,
            json_escape(&self.findings),
            self.virtual_us,
            self.iterations,
            self.smt_queries,
            self.exec_us,
            self.solve_us,
            self.elapsed_ms,
            self.digest(),
        )
    }

    /// Parse and digest-check one record line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, missing fields, or a digest that does not re-derive
    /// from the parsed fields.
    pub fn parse(line: &str) -> Result<OutcomeRecord, String> {
        let f = parse_json_fields(line)?;
        let num = |key: &str| {
            f.get(key)
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("record: missing numeric field {key:?}"))
        };
        let text = |key: &str| {
            f.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("record: missing string field {key:?}"))
        };
        let v = num("v")?;
        if v != JOURNAL_VERSION {
            return Err(format!("record: version {v} unsupported"));
        }
        let rec = OutcomeRecord {
            index: num("index")? as usize,
            contract: text("contract")?,
            outcome: text("outcome")?,
            stage: text("stage")?,
            detail: text("detail")?,
            seed: num("seed")?,
            truncated: f
                .get("truncated")
                .and_then(|v| v.as_bool())
                .ok_or("record: missing boolean field \"truncated\"")?,
            branches: num("branches")?,
            findings: text("findings")?,
            virtual_us: num("virtual_us")?,
            iterations: num("iterations")?,
            smt_queries: num("smt_queries")?,
            exec_us: num("exec_us")?,
            solve_us: num("solve_us")?,
            elapsed_ms: num("elapsed_ms")?,
        };
        let stated = f
            .get("digest")
            .and_then(|v| v.as_str())
            .ok_or("record: missing digest")
            .and_then(|s| u64::from_str_radix(s, 16).map_err(|_| "record: bad digest"))
            .map_err(str::to_string)?;
        let derived = rec.digest();
        if stated != derived {
            return Err(format!(
                "record for index {}: digest mismatch (stated {stated:016x}, derived {derived:016x})",
                rec.index
            ));
        }
        Ok(rec)
    }
}

/// An open, append-mode journal. Create with [`Journal::create`] or
/// [`Journal::open_or_resume`].
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Create a fresh journal at `path`: the header line lands via
    /// tmp+rename (fsync'd file and directory), so the journal exists
    /// atomically or not at all. An existing file at `path` is replaced.
    pub fn create(path: &Path, meta: &JournalMeta) -> io::Result<Journal> {
        write_atomic(path, format!("{}\n", meta.header_line()).as_bytes())?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Open `path` for resuming the sweep described by `meta`: validate the
    /// header, load every intact record, drop (and truncate away) a torn
    /// final line, and return the journal positioned for further appends.
    ///
    /// A missing file is not an error — it becomes a fresh journal with no
    /// restored records, so `--resume` doubles as "journal this run".
    ///
    /// # Errors
    ///
    /// A header that does not match `meta` (different seed, corpus, or
    /// count), corruption anywhere except the final line, a record index
    /// out of range, or I/O failure.
    pub fn open_or_resume(
        path: &Path,
        meta: &JournalMeta,
    ) -> Result<(Journal, Vec<OutcomeRecord>), String> {
        if !path.exists() {
            let j = Journal::create(path, meta).map_err(|e| format!("{}: {e}", path.display()))?;
            return Ok((j, Vec::new()));
        }
        let display = path.display();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("{display}: {e}"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("{display}: {e}"))?;

        // Split bytes, keeping offsets so a torn tail can be truncated away,
        // and decode line by line: a kill can cut the final line inside a
        // multi-byte character, which must read as torn, not as a bad file.
        let mut lines: Vec<(usize, &[u8])> = Vec::new();
        let mut offset = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            lines.push((offset, line));
            offset += line.len();
        }
        let Some(&(_, header)) = lines.first() else {
            return Err(format!("{display}: empty journal (no header line)"));
        };
        let header = line_text(header).map_err(|e| format!("{display}: header line: {e}"))?;
        let found = JournalMeta::parse(header.trim_end())?;
        if &found != meta {
            return Err(format!(
                "{display}: journal is for a different sweep (journal: seed {}, {} campaigns, corpus {:016x}; this run: seed {}, {} campaigns, corpus {:016x})",
                found.seed, found.campaigns, found.corpus, meta.seed, meta.campaigns, meta.corpus,
            ));
        }

        let mut records: Vec<OutcomeRecord> = Vec::new();
        let mut seen = vec![false; meta.campaigns];
        let mut keep_bytes = bytes.len();
        for (li, &(off, line)) in lines.iter().enumerate().skip(1) {
            let last = li == lines.len() - 1;
            match line_text(line).and_then(|l| OutcomeRecord::parse(l.trim_end())) {
                Ok(rec) => {
                    if rec.index >= meta.campaigns {
                        return Err(format!(
                            "{display} line {}: record index {} out of range (sweep has {} campaigns)",
                            li + 1,
                            rec.index,
                            meta.campaigns
                        ));
                    }
                    // Duplicates can only arise from a crash between a
                    // worker finishing and the supervisor journaling; the
                    // campaign is deterministic, so first record wins.
                    if !std::mem::replace(&mut seen[rec.index], true) {
                        records.push(rec);
                    }
                }
                Err(e) if last => {
                    // The tolerated torn write: drop the tail and truncate
                    // so future appends start on a clean line boundary.
                    eprintln!("resume: dropping torn final journal line ({e})");
                    keep_bytes = off;
                }
                Err(e) => {
                    return Err(format!(
                        "{display} line {}: corrupt journal record ({e}) — corruption before the final line is not recoverable",
                        li + 1
                    ));
                }
            }
        }
        if keep_bytes < bytes.len() {
            file.set_len(keep_bytes as u64)
                .map_err(|e| format!("{display}: truncating torn tail: {e}"))?;
            file.sync_data().map_err(|e| format!("{display}: {e}"))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("{display}: {e}"))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            records,
        ))
    }

    /// Append one record durably: a single write of the full line, flushed
    /// and fsync'd before returning.
    pub fn append(&mut self, rec: &OutcomeRecord) -> io::Result<()> {
        let mut line = rec.to_jsonl();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        wasai_obs::inc(wasai_obs::Counter::JournalRecords);
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One journal line as text: it must end in a newline (else it is torn)
/// and decode as UTF-8.
fn line_text(line: &[u8]) -> Result<&str, String> {
    let line = line
        .strip_suffix(b"\n")
        .ok_or("torn line (no trailing newline)")?;
    std::str::from_utf8(line).map_err(|e| format!("invalid UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wasai-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn rec(index: usize, outcome: &str) -> OutcomeRecord {
        OutcomeRecord {
            index,
            contract: format!("c{index:04}.wasm"),
            outcome: outcome.to_string(),
            stage: if outcome == "ok" { "-" } else { "solve" }.to_string(),
            detail: if outcome == "ok" {
                String::new()
            } else {
                "it \"broke\"\nbadly".to_string()
            },
            seed: 5 ^ index as u64,
            truncated: false,
            branches: 10 + index as u64,
            findings: if index.is_multiple_of(2) {
                String::new()
            } else {
                "Fake EOS, Rollback".to_string()
            },
            virtual_us: 1000 * index as u64,
            iterations: 8 * index as u64,
            smt_queries: index as u64,
            exec_us: 900 * index as u64,
            solve_us: 100 * index as u64,
            elapsed_ms: 17,
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("c{i:04}.wasm")).collect()
    }

    #[test]
    fn record_round_trips_with_escapes() {
        for r in [rec(0, "ok"), rec(1, "panicked"), rec(3, "timed-out")] {
            let line = r.to_jsonl();
            assert_eq!(OutcomeRecord::parse(&line).expect("round trip"), r);
        }
    }

    #[test]
    fn digest_excludes_wall_clock_but_covers_outcome() {
        let a = rec(1, "ok");
        let mut b = a.clone();
        b.elapsed_ms = 9999;
        assert_eq!(a.digest(), b.digest(), "wall clock is not identity");
        let mut c = a.clone();
        c.outcome = "failed".to_string();
        assert_ne!(a.digest(), c.digest());
        let mut d = a.clone();
        d.branches += 1;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn tampered_record_is_rejected() {
        let line = rec(2, "ok").to_jsonl();
        let tampered = line.replace("\"outcome\":\"ok\"", "\"outcome\":\"failed\"");
        assert_ne!(line, tampered);
        let err = OutcomeRecord::parse(&tampered).expect_err("tampering must not parse");
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn create_append_resume_restores_records() {
        let dir = scratch("roundtrip");
        let path = dir.join("sweep.journal");
        let meta = JournalMeta::new(5, &names(4));
        let mut j = Journal::create(&path, &meta).expect("create");
        j.append(&rec(0, "ok")).expect("append");
        j.append(&rec(2, "failed")).expect("append");
        drop(j);
        let (_j, records) = Journal::open_or_resume(&path, &meta).expect("resume");
        assert_eq!(records, vec![rec(0, "ok"), rec(2, "failed")]);
    }

    #[test]
    fn missing_file_resumes_as_fresh_journal() {
        let dir = scratch("fresh");
        let path = dir.join("new.journal");
        let meta = JournalMeta::new(1, &names(2));
        let (j, records) = Journal::open_or_resume(&path, &meta).expect("fresh");
        assert!(records.is_empty());
        assert!(j.path().exists(), "header must be written");
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let dir = scratch("torn");
        let path = dir.join("sweep.journal");
        let meta = JournalMeta::new(5, &names(4));
        let mut j = Journal::create(&path, &meta).expect("create");
        j.append(&rec(0, "ok")).expect("append");
        j.append(&rec(1, "ok")).expect("append");
        drop(j);
        // Simulate a mid-write kill: chop the last record in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - 25;
        std::fs::write(&path, &text[..cut]).expect("tear");

        let (mut j, records) = Journal::open_or_resume(&path, &meta).expect("resume");
        assert_eq!(records, vec![rec(0, "ok")], "torn record must be dropped");
        // The torn bytes are gone: a fresh append starts a clean line.
        j.append(&rec(3, "ok")).expect("append after tear");
        drop(j);
        let (_j, records) = Journal::open_or_resume(&path, &meta).expect("re-resume");
        assert_eq!(records, vec![rec(0, "ok"), rec(3, "ok")]);
    }

    #[test]
    fn final_line_cut_inside_a_utf8_character_is_torn() {
        let dir = scratch("torn-utf8");
        let path = dir.join("sweep.journal");
        let names = vec!["a.wasm".to_string(), "é.wasm".to_string()];
        let meta = JournalMeta::new(5, &names);
        let mut named = rec(1, "ok");
        named.contract = names[1].clone();
        let mut j = Journal::create(&path, &meta).expect("create");
        j.append(&rec(0, "ok")).expect("append");
        j.append(&named).expect("append");
        drop(j);
        // Cut after the first byte of `é`, the power-loss tail.
        let bytes = std::fs::read(&path).expect("read");
        let e_acute = "é".as_bytes()[0];
        let cut = bytes.iter().rposition(|&b| b == e_acute).expect("é") + 1;
        std::fs::write(&path, &bytes[..cut]).expect("tear");

        let (mut j, records) = Journal::open_or_resume(&path, &meta).expect("resume");
        assert_eq!(records, vec![rec(0, "ok")], "torn record must be dropped");
        j.append(&named).expect("append after tear");
        drop(j);

        // The same invalid byte before the final line is corruption.
        let mut bytes = std::fs::read(&path).expect("read");
        let at = bytes.iter().position(|&b| b == e_acute).expect("é");
        bytes.remove(at + 1);
        bytes.extend_from_slice(format!("{}\n", rec(0, "ok").to_jsonl()).as_bytes());
        std::fs::write(&path, bytes).expect("corrupt");
        let err = Journal::open_or_resume(&path, &meta).expect_err("must fail");
        assert!(err.contains("line 3") && err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let dir = scratch("midfile");
        let path = dir.join("sweep.journal");
        let meta = JournalMeta::new(5, &names(4));
        let mut j = Journal::create(&path, &meta).expect("create");
        j.append(&rec(0, "ok")).expect("append");
        j.append(&rec(1, "ok")).expect("append");
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!("{}\ngarbage not json\n{}\n", lines[0], lines[2]);
        std::fs::write(&path, mangled).expect("mangle");
        let err = Journal::open_or_resume(&path, &meta).expect_err("must fail");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn mismatched_sweep_is_rejected() {
        let dir = scratch("mismatch");
        let path = dir.join("sweep.journal");
        let meta = JournalMeta::new(5, &names(4));
        Journal::create(&path, &meta).expect("create");
        let other_seed = JournalMeta::new(6, &names(4));
        assert!(Journal::open_or_resume(&path, &other_seed)
            .expect_err("seed mismatch")
            .contains("different sweep"));
        let other_corpus = JournalMeta::new(5, &names(5));
        assert!(Journal::open_or_resume(&path, &other_corpus)
            .expect_err("corpus mismatch")
            .contains("different sweep"));
    }

    #[test]
    fn duplicate_indices_keep_first_record() {
        let dir = scratch("dup");
        let path = dir.join("sweep.journal");
        let meta = JournalMeta::new(5, &names(4));
        let mut j = Journal::create(&path, &meta).expect("create");
        j.append(&rec(1, "ok")).expect("append");
        let mut later = rec(1, "ok");
        later.elapsed_ms = 99;
        j.append(&later).expect("append dup");
        drop(j);
        let (_j, records) = Journal::open_or_resume(&path, &meta).expect("resume");
        assert_eq!(records, vec![rec(1, "ok")]);
    }

    #[test]
    fn out_of_range_index_is_fatal() {
        let dir = scratch("range");
        let path = dir.join("sweep.journal");
        let meta = JournalMeta::new(5, &names(2));
        let mut j = Journal::create(&path, &meta).expect("create");
        j.append(&rec(7, "ok")).expect("append");
        drop(j);
        // Appending never validates (the writer knows its indices); the
        // reader is the gate.
        let err = Journal::open_or_resume(&path, &meta).expect_err("must fail");
        assert!(err.contains("out of range"), "{err}");
    }
}
