//! On-disk persistence for the fleet [`SolverCache`] — the warm-start layer
//! that lets a sweep over the same corpus skip every query a previous run
//! already solved, across process (and machine) boundaries.
//!
//! The file carries exactly what the in-memory cache does: canonical
//! [`QueryKey`] bytes mapped to the pool-independent
//! [`CachedQuery`] (verdict, named model values, exact solve statistics).
//! Because a cache hit replays the solver's result *and statistics*
//! bit-for-bit, a warm run's reports and traces are byte-identical to the
//! cold run that wrote the file — persistence is invisible except in
//! wall-clock time.
//!
//! Durability discipline mirrors the fleet journal
//! (`wasai-core`'s `fleet/journal.rs`): both take their FNV-1a digest
//! ([`wasai_obs::Fnv`]) and their atomic writer
//! ([`wasai_obs::record::write_atomic`]) from `wasai-obs`, and both
//! tolerate a torn tail but fail fast on interior corruption:
//!
//! - **Header** pins the file format version *and* the canonical key
//!   encoding version ([`crate::canon::CANON_VERSION`]): keys written under
//!   one encoding must never be interpreted under another.
//! - **Records** are one line each — hex key bytes, verdict tag, the four
//!   statistics, hex-named model pairs — ending in an FNV-1a digest over
//!   every preceding field.
//! - **Create/flush** writes a tmp sibling, fsyncs, renames over the
//!   destination, and fsyncs the parent directory, so a crash leaves either
//!   the old file or the new one, never a hybrid.
//! - **Load** tolerates a torn *final* line (dropped), fails fast on any
//!   earlier corruption, and refuses records that the cacheability policy
//!   ([`crate::cache::cacheable`]) would never have admitted: an `Unknown`
//!   whose conflict count never reached the key's cap is a
//!   deadline-truncation artifact and must not poison warm runs.
//!
//! Records are saved in key order (the cache snapshot is sorted), which
//! together with deterministic eviction makes the saved file a pure
//! function of the entries ever stored — byte-identical at any worker
//! count or process split.

use std::fs;
use std::path::Path;

use wasai_obs::record::write_atomic;
use wasai_obs::Fnv;

use crate::cache::{CachedOutcome, CachedQuery, SolverCache};
use crate::canon::{QueryKey, CANON_VERSION};
use crate::solver::SolveStats;

/// Version of the on-disk record layout. Bump on any change to the line
/// format; the header also pins [`CANON_VERSION`] separately so either kind
/// of drift invalidates old files.
pub const CACHE_FORMAT_VERSION: u64 = 1;

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode a hex field byte-wise, so a non-ASCII character is an error
/// rather than a slice across a UTF-8 boundary.
fn unhex(s: &str) -> Result<Vec<u8>, String> {
    let digit = |b: u8| {
        char::from(b)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| "invalid hex field".to_string())
    };
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex field".into());
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Ok(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

fn header() -> String {
    format!("wasai-solver-cache v{CACHE_FORMAT_VERSION} canon{CANON_VERSION}")
}

/// Render one record line (without the trailing newline).
fn render_record(key: &QueryKey, q: &CachedQuery) -> String {
    let empty: &[(String, u64)] = &[];
    let (tag, pairs) = match &q.outcome {
        CachedOutcome::Sat(p) => ("sat", p.as_slice()),
        CachedOutcome::Unsat => ("unsat", empty),
        CachedOutcome::Unknown => ("unknown", empty),
    };
    let mut tokens: Vec<String> = vec![
        hex(key.as_bytes()),
        tag.to_string(),
        q.stats.conflicts.to_string(),
        q.stats.propagations.to_string(),
        q.stats.sat_vars.to_string(),
        q.stats.sat_clauses.to_string(),
    ];
    for (name, value) in pairs {
        tokens.push(format!("{}={value:x}", hex(name.as_bytes())));
    }
    let mut f = Fnv::new();
    for t in &tokens {
        f.field(t.as_bytes());
    }
    tokens.push(format!("{:016x}", f.finish()));
    tokens.join(" ")
}

/// Parse one record line. Errors name what broke; the caller prefixes the
/// line number.
fn parse_record(line: &str) -> Result<(QueryKey, CachedQuery), String> {
    let tokens: Vec<&str> = line.split(' ').collect();
    if tokens.len() < 7 {
        return Err("short record".into());
    }
    let (body, digest) = tokens.split_at(tokens.len() - 1);
    let mut f = Fnv::new();
    for t in body {
        f.field(t.as_bytes());
    }
    let expected = format!("{:016x}", f.finish());
    if digest[0] != expected {
        return Err("digest mismatch".into());
    }
    let key = QueryKey::from_bytes(unhex(body[0])?);
    let conflicts: u64 = body[2].parse().map_err(|_| "bad conflicts field")?;
    let propagations: u64 = body[3].parse().map_err(|_| "bad propagations field")?;
    let sat_vars: usize = body[4].parse().map_err(|_| "bad vars field")?;
    let sat_clauses: usize = body[5].parse().map_err(|_| "bad clauses field")?;
    let stats = SolveStats {
        conflicts,
        propagations,
        sat_vars,
        sat_clauses,
    };
    let outcome = match body[1] {
        "sat" => {
            let mut pairs = Vec::with_capacity(body.len() - 6);
            for pair in &body[6..] {
                let (name_hex, value_hex) = pair.split_once('=').ok_or("malformed model pair")?;
                let name = String::from_utf8(unhex(name_hex)?)
                    .map_err(|_| "model name is not utf-8".to_string())?;
                let value = u64::from_str_radix(value_hex, 16)
                    .map_err(|_| "bad model value".to_string())?;
                pairs.push((name, value));
            }
            CachedOutcome::Sat(pairs)
        }
        "unsat" if body.len() == 6 => CachedOutcome::Unsat,
        "unknown" if body.len() == 6 => {
            // Refuse what `cacheable` would have refused at store time: a
            // conflict-capped Unknown always records conflicts >= the cap
            // (that is what "capped" means), so a smaller count can only be
            // a deadline-truncated Unknown smuggled in by a foreign writer.
            if conflicts < key.max_conflicts() {
                return Err("deadline-truncated Unknown refused".into());
            }
            CachedOutcome::Unknown
        }
        _ => return Err("unknown verdict tag".into()),
    };
    Ok((key, CachedQuery { outcome, stats }))
}

/// Serialize `cache` to `path` atomically (see
/// [`wasai_obs::record::write_atomic`]). Returns the number of records
/// written.
pub fn save(path: &Path, cache: &SolverCache) -> Result<usize, String> {
    let entries = cache.snapshot();
    let mut buf = String::with_capacity(64 * (entries.len() + 1));
    buf.push_str(&header());
    buf.push('\n');
    for (key, q) in &entries {
        buf.push_str(&render_record(key, q));
        buf.push('\n');
    }
    write_atomic(path, buf.as_bytes())
        .map_err(|e| format!("solver cache {}: {e}", path.display()))?;
    Ok(entries.len())
}

/// Load a cache file into `cache` (via its normal store path, so capacity
/// policy applies). A missing file is an empty warm set, not an error; a
/// torn final line is dropped; any earlier corruption — and any record the
/// cacheability policy forbids — is fatal. Returns the number of records
/// loaded.
pub fn load_into(path: &Path, cache: &SolverCache) -> Result<usize, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("solver cache {}: {e}", path.display())),
    };
    let mut lines = text.split_inclusive('\n');
    let expected = header();
    match lines.next() {
        Some(first) if first.strip_suffix('\n') == Some(expected.as_str()) => {}
        Some(first) if first.trim_end().starts_with("wasai-solver-cache") => {
            return Err(format!(
                "solver cache {}: version mismatch (found {:?}, expected {:?})",
                path.display(),
                first.trim_end(),
                expected
            ));
        }
        _ => {
            return Err(format!(
                "solver cache {}: not a solver cache file",
                path.display()
            ));
        }
    }
    let records: Vec<&str> = lines.collect();
    let mut loaded = 0usize;
    for (i, raw) in records.iter().enumerate() {
        let line_no = i + 2; // 1-based, after the header
        let last = i + 1 == records.len();
        let torn = !raw.ends_with('\n');
        let parsed = parse_record(raw.trim_end_matches('\n'));
        match parsed {
            Ok((key, q)) if !torn => {
                cache.store(key, q);
                loaded += 1;
            }
            // A torn or unparsable *final* line is the tail of an
            // interrupted write: drop it. (The record before it was
            // fsynced whole, so nothing else is suspect.) A parse failure
            // anywhere earlier means interior corruption — refuse the
            // file rather than warm-start from a lie.
            Ok(_) | Err(_) if last => break,
            Err(e) => {
                return Err(format!(
                    "solver cache {} line {line_no}: {e}",
                    path.display()
                ));
            }
            Ok(_) => unreachable!("non-torn, non-last records are stored"),
        }
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::query_key;
    use crate::solver::{check, Budget};
    use crate::term::{CmpOp, TermPool};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wasai-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A cache warmed with a few real solves: one Sat, one Unsat, one
    /// conflict-capped (legitimate) Unknown.
    fn warmed() -> SolverCache {
        let cache = SolverCache::evicting();
        let mut p = TermPool::new();
        let x = p.var("arg0.amount", 64);

        let sat = {
            let c = p.bv_const(41, 64);
            p.eq(x, c)
        };
        let unsat = {
            let c = p.bv_const(3, 64);
            let lt = p.cmp(CmpOp::Ult, x, c);
            let ge = p.not(lt);
            let one = p.bv_const(1, 64);
            let lt1 = p.cmp(CmpOp::Ult, x, one);
            p.and(ge, lt1)
        };
        for q in [sat, unsat] {
            let budget = Budget::default();
            let key = query_key(&p, &[q], None, budget.max_conflicts);
            let (res, stats) = check(&p, &[q], budget);
            cache.store(key, CachedQuery::encode(&p, &res, stats));
        }
        // A capped Unknown records conflicts >= the cap.
        let key = query_key(&p, &[sat], None, 7);
        cache.store(
            key,
            CachedQuery {
                outcome: CachedOutcome::Unknown,
                stats: SolveStats {
                    conflicts: 7,
                    propagations: 100,
                    sat_vars: 64,
                    sat_clauses: 10,
                },
            },
        );
        cache
    }

    fn entries(c: &SolverCache) -> Vec<(QueryKey, CachedQuery)> {
        c.snapshot()
    }

    #[test]
    fn round_trip_is_lossless_and_canonical() {
        let dir = scratch("roundtrip");
        let path = dir.join("cache.wsc");
        let cache = warmed();
        let written = save(&path, &cache).expect("save");
        assert_eq!(written, 3);

        let back = SolverCache::evicting();
        let loaded = load_into(&path, &back).expect("load");
        assert_eq!(loaded, 3);
        assert_eq!(entries(&cache), entries(&back));

        // Saving the reloaded cache reproduces the file byte-for-byte:
        // the format is canonical (sorted, no timestamps).
        let path2 = dir.join("cache2.wsc");
        save(&path2, &back).expect("save again");
        assert_eq!(
            fs::read(&path).expect("read 1"),
            fs::read(&path2).expect("read 2")
        );
    }

    #[test]
    fn missing_file_is_an_empty_warm_set() {
        let dir = scratch("missing");
        let cache = SolverCache::new();
        let loaded = load_into(&dir.join("nope.wsc"), &cache).expect("missing ok");
        assert_eq!(loaded, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn version_mismatch_is_refused() {
        let dir = scratch("version");
        let path = dir.join("cache.wsc");
        save(&path, &warmed()).expect("save");
        let text = fs::read_to_string(&path).expect("read");
        let bumped = text.replace(
            &format!("v{CACHE_FORMAT_VERSION} canon{CANON_VERSION}"),
            "v999 canon1",
        );
        fs::write(&path, bumped).expect("write");
        let err = load_into(&path, &SolverCache::new()).expect_err("must refuse");
        assert!(err.contains("version mismatch"), "{err}");

        fs::write(&path, "not a cache\n").expect("write garbage");
        let err = load_into(&path, &SolverCache::new()).expect_err("must refuse");
        assert!(err.contains("not a solver cache file"), "{err}");
    }

    #[test]
    fn digest_tamper_is_fatal() {
        let dir = scratch("tamper");
        let path = dir.join("cache.wsc");
        save(&path, &warmed()).expect("save");
        let text = fs::read_to_string(&path).expect("read");
        // Flip a statistics digit in the first record (line 2).
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let tokens: Vec<String> = lines[1].split(' ').map(String::from).collect();
        let mut tampered = tokens.clone();
        tampered[3] = format!("{}9", tokens[3]); // propagations field
        lines[1] = tampered.join(" ");
        fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write");
        let err = load_into(&path, &SolverCache::new()).expect_err("must refuse");
        assert!(
            err.contains("line 2") && err.contains("digest mismatch"),
            "{err}"
        );
    }

    #[test]
    fn torn_tail_is_dropped_earlier_corruption_is_fatal() {
        let dir = scratch("torn");
        let path = dir.join("cache.wsc");
        save(&path, &warmed()).expect("save");
        let text = fs::read_to_string(&path).expect("read");

        // Cut into the final line: the record is dropped, the rest loads.
        fs::write(&path, &text[..text.len() - 10]).expect("write torn");
        let cache = SolverCache::new();
        let loaded = load_into(&path, &cache).expect("torn tail tolerated");
        assert_eq!(loaded, 2);
        assert_eq!(cache.len(), 2);

        // The same garbage mid-file is fatal.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "garbage that is not a record");
        fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write");
        let err = load_into(&path, &SolverCache::new()).expect_err("must refuse");
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn non_ascii_hex_field_is_an_error_not_a_panic() {
        // Digest-valid, so only the hex decoder stands between it and a
        // slice across the two-byte `é`.
        let body = ["aé0", "unsat", "0", "0", "0", "0"];
        let mut f = Fnv::new();
        for t in body {
            f.field(t.as_bytes());
        }
        let line = format!("{} {:016x}", body.join(" "), f.finish());
        assert!(parse_record(&line).is_err());

        let dir = scratch("nonascii");
        let path = dir.join("cache.wsc");
        save(&path, &warmed()).expect("save");
        let text = fs::read_to_string(&path).expect("read");
        let (head, rest) = text.split_once('\n').expect("header line");
        fs::write(&path, format!("{head}\n{line}\n{rest}")).expect("write");
        let err = load_into(&path, &SolverCache::new()).expect_err("must refuse");
        assert!(
            err.contains("line 2") && err.contains("invalid hex"),
            "{err}"
        );
    }

    #[test]
    fn truncated_unknown_is_refused_on_load() {
        let dir = scratch("truncated");
        let path = dir.join("cache.wsc");
        // Hand-assemble a record whose Unknown never reached its cap — the
        // signature of a deadline-truncated outcome `cacheable` would have
        // rejected at store time.
        let cache = SolverCache::new();
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let c = p.bv_const(1, 8);
        let q = p.eq(x, c);
        let key = query_key(&p, &[q], None, 1000);
        cache.store(
            key,
            CachedQuery {
                outcome: CachedOutcome::Unknown,
                stats: SolveStats {
                    conflicts: 12, // < 1000: truncated, not capped
                    propagations: 50,
                    sat_vars: 8,
                    sat_clauses: 4,
                },
            },
        );
        save(&path, &cache).expect("save");
        // Append a healthy record after it so the bad one is not the
        // droppable tail.
        let healthy = warmed();
        let text = fs::read_to_string(&path).expect("read");
        let healthy_path = dir.join("healthy.wsc");
        save(&healthy_path, &healthy).expect("save healthy");
        let healthy_text = fs::read_to_string(&healthy_path).expect("read healthy");
        let extra = healthy_text.lines().nth(1).expect("a record");
        fs::write(&path, format!("{text}{extra}\n")).expect("write");

        let err = load_into(&path, &SolverCache::new()).expect_err("must refuse");
        assert!(err.contains("deadline-truncated Unknown"), "{err}");
    }
}
