//! The wall-clock trajectory log: `results/BENCH_grid.json`.
//!
//! Every `make_tables` grid invocation appends one single-line JSON
//! record (`{"runs":[...]}` overall) so successive runs — `--jobs 1` vs
//! `--jobs 4`, before vs after an engine change — can be compared from
//! one file.
//!
//! # Schema
//!
//! The current record schema is [`SCHEMA`] (3). Relative to schema 2 it
//! adds the `"sim_threads"` field: the scheduler shard count of builds
//! that could shard one simulation. Every simulation now runs on one
//! queue, so new records always write `"sim_threads":1`; older records
//! keep their value and their own compaction key.
//! On every append the whole file is normalized:
//!
//! * **schema-2 records are migrated in place** — they gain
//!   `"sim_threads":1` (the only value those builds could run) and their
//!   schema number is bumped, so one file never mixes field layouts;
//! * **legacy records** (no `"schema"` field at all — the pre-schema era
//!   that also lacked `"arch_hash"` and `"faults"`) **are dropped**: they
//!   cannot be attributed to an architecture point or fault plan, which
//!   makes their timings incomparable with everything the file is for;
//! * records are compacted to the newest [`KEEP_PER_KEY`] per
//!   configuration key so the file stays bounded forever.
//!
//! An unreadable or foreign file starts over with just the new record.

use std::fmt::Write as _;

use wwt_core::arch::ArchParams;
use wwt_core::{ExperimentArtifacts, Scale};

/// The record schema this build writes.
pub const SCHEMA: u32 = 3;

/// Compaction: keep only the latest this-many records per
/// (scale, jobs, sim_threads, cache, experiment-set) key, so the log
/// stays bounded no matter how many invocations accumulate.
pub const KEEP_PER_KEY: usize = 8;

/// The compaction key of one record line. Extracted textually (records
/// are single-line JSON this module wrote itself).
fn bench_key(rec: &str) -> String {
    let field = |name: &str| -> String {
        rec.split(&format!("\"{name}\":"))
            .nth(1)
            .map(|r| r.chars().take_while(|c| !",}".contains(*c)).collect())
            .unwrap_or_default()
    };
    let ids: Vec<&str> = rec
        .split("\"id\":\"")
        .skip(1)
        .filter_map(|r| r.split('"').next())
        .collect();
    format!(
        "{}|{}|{}|{}|{}",
        field("scale"),
        field("jobs"),
        field("sim_threads"),
        field("cache"),
        ids.join(",")
    )
}

/// Renders one invocation's timing record (single-line JSON, schema
/// [`SCHEMA`]).
pub fn bench_record(
    scale: Scale,
    jobs: usize,
    cache: bool,
    arch: &ArchParams,
    faults_spec: Option<&str>,
    total_secs: f64,
    artifacts: &[ExperimentArtifacts],
) -> String {
    let faults = match faults_spec {
        Some(f) => format!("\"{f}\""),
        None => "null".to_string(),
    };
    let mut rec = format!(
        "{{\"schema\":{SCHEMA},\"scale\":\"{}\",\"jobs\":{jobs},\"sim_threads\":1,\"cache\":{cache},\"arch_hash\":\"{:016x}\",\"faults\":{faults},\"total_wall_secs\":{total_secs:.6},\"experiments\":[",
        scale.name(),
        arch.stable_hash()
    );
    for (i, a) in artifacts.iter().enumerate() {
        if i > 0 {
            rec.push(',');
        }
        let _ = write!(
            rec,
            "{{\"id\":\"{}\",\"wall_secs\":{:.6},\"cached\":{}}}",
            a.experiment.id(),
            a.wall_secs,
            a.from_cache
        );
    }
    rec.push_str("]}");
    rec
}

/// Normalizes one existing record to the current schema.
///
/// Returns `None` for legacy records (no `"schema"` field, or an
/// unparseable one): they predate `"arch_hash"`/`"faults"` and cannot be
/// attributed to a configuration, so they are dropped rather than given
/// invented values. Records stamped with a **future** schema (a newer
/// build wrote them) are skipped with a stderr warning instead of being
/// reinterpreted — this build cannot know what their fields mean. A
/// record at or below the current schema that lacks `"sim_threads"`
/// (schema 2, or a hand-damaged schema-3 line) gains `"sim_threads":1`
/// — the only value those builds could run — and a restamped schema
/// number; current records pass through unchanged.
fn migrate(rec: &str) -> Option<String> {
    let schema: u32 = rec
        .split("\"schema\":")
        .nth(1)?
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .ok()?;
    if schema > SCHEMA {
        eprintln!(
            "warning: BENCH_grid.json record with schema {schema} was written by a \
             newer build (this one writes {SCHEMA}); skipping it"
        );
        return None;
    }
    if rec.contains("\"sim_threads\":") {
        return Some(rec.to_string());
    }
    // Schema 2: single-threaded engine, so sim_threads was always 1.
    // Splice the field in right after "jobs" (every schema-2 record has
    // it) and restamp the schema number.
    let migrated = rec
        .replacen("\"schema\":2,", &format!("\"schema\":{SCHEMA},"), 1)
        .replacen("\"cache\":", "\"sim_threads\":1,\"cache\":", 1);
    Some(migrated)
}

/// Appends `record` to the log at `path`, migrating or dropping old
/// records and compacting to [`KEEP_PER_KEY`] per configuration key.
/// The rewrite is atomic (temp + rename via [`wwt_core::store`]): a run
/// killed mid-append leaves the previous log intact, never a truncated
/// document. A truncated or foreign file found on disk — a crash from a
/// build predating atomic appends, a hand edit — starts the log over
/// with just the new record rather than erroring forever.
pub fn append_bench_record(path: &str, record: &str) -> std::io::Result<()> {
    let mut records: Vec<String> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let body = s
                .trim_end()
                .strip_prefix("{\"runs\":[")?
                .strip_suffix("]}")?
                .to_string();
            Some(
                body.split(",\n")
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .filter_map(migrate)
                    .collect(),
            )
        })
        .unwrap_or_default();
    records.push(record.to_string());
    let keys: Vec<String> = records.iter().map(|r| bench_key(r)).collect();
    let mut keep = vec![false; records.len()];
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for i in (0..records.len()).rev() {
        let c = counts.entry(keys[i].as_str()).or_insert(0);
        if *c < KEEP_PER_KEY {
            keep[i] = true;
            *c += 1;
        }
    }
    let kept: Vec<&str> = records
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(r, _)| r.as_str())
        .collect();
    wwt_core::store::atomic_write(
        path,
        format!("{{\"runs\":[\n{}]}}\n", kept.join(",\n")).as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("wwt-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_grid.json");
        let path_s = path.to_str().unwrap().to_string();
        (dir, path_s)
    }

    const SCHEMA2: &str = "{\"schema\":2,\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
         \"arch_hash\":\"00deadbeef000000\",\"faults\":null,\"total_wall_secs\":1.5,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";
    const LEGACY: &str = "{\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";
    const SCHEMA3: &str = "{\"schema\":3,\"scale\":\"test\",\"jobs\":4,\"sim_threads\":2,\
         \"cache\":true,\"arch_hash\":\"00deadbeef000000\",\"faults\":null,\
         \"total_wall_secs\":1.5,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";

    #[test]
    fn bench_records_accumulate_as_one_json_document() {
        let (dir, path) = temp_log("accumulate");
        append_bench_record(&path, "{\"schema\":3,\"jobs\":1}").unwrap();
        append_bench_record(&path, "{\"schema\":3,\"jobs\":4}").unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            s,
            "{\"runs\":[\n{\"schema\":3,\"jobs\":1},\n{\"schema\":3,\"jobs\":4}]}\n"
        );
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema2_records_gain_sim_threads_on_append() {
        let (dir, path) = temp_log("migrate2");
        std::fs::write(&path, format!("{{\"runs\":[\n{SCHEMA2}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA3).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        // The old record survives, migrated in place…
        assert!(
            s.contains(
                "\"schema\":3,\"scale\":\"test\",\"jobs\":4,\"sim_threads\":1,\"cache\":true"
            ),
            "{s}"
        );
        // …and nothing in the file is left at schema 2.
        assert!(!s.contains("\"schema\":2"), "{s}");
        assert_eq!(s.matches("\"sim_threads\":").count(), 2, "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_records_without_schema_are_dropped_on_append() {
        let (dir, path) = temp_log("legacy");
        std::fs::write(
            &path,
            format!("{{\"runs\":[\n{LEGACY},\n{SCHEMA2},\n{LEGACY}]}}\n"),
        )
        .unwrap();
        append_bench_record(&path, SCHEMA3).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        // Legacy rows (no arch/fault attribution) are gone; the schema-2
        // row was migrated; the new row was appended.
        assert!(!s.contains("\"total_wall_secs\":1.5,\"experiments\"") || s.contains("arch_hash"));
        assert_eq!(s.matches("\"schema\":3").count(), 2, "{s}");
        assert_eq!(s.matches("arch_hash").count(), 2, "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_is_idempotent_across_appends() {
        let (dir, path) = temp_log("idempotent");
        std::fs::write(&path, format!("{{\"runs\":[\n{SCHEMA2}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA3).unwrap();
        let once = std::fs::read_to_string(&path).unwrap();
        append_bench_record(&path, SCHEMA3).unwrap();
        let twice = std::fs::read_to_string(&path).unwrap();
        // The migrated row is byte-stable; only the duplicate new row and
        // compaction differ.
        assert_eq!(once.matches("\"sim_threads\":1,").count(), 1);
        assert_eq!(twice.matches("\"sim_threads\":1,").count(), 1);
        assert!(
            !twice.contains("\"sim_threads\":1,\"sim_threads\":1"),
            "{twice}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_records_compact_to_the_latest_n_per_key() {
        let (dir, path) = temp_log("compact");
        for i in 0..(KEEP_PER_KEY + 5) {
            let rec = format!(
                "{{\"schema\":3,\"scale\":\"test\",\"jobs\":4,\"sim_threads\":1,\"cache\":true,\"seq\":{i},\
                 \"experiments\":[{{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}}]}}"
            );
            append_bench_record(&path, &rec).unwrap();
        }
        // A different key (other jobs count) must not be evicted by the
        // first key's overflow.
        append_bench_record(
            &path,
            "{\"schema\":3,\"scale\":\"test\",\"jobs\":1,\"sim_threads\":1,\"cache\":true,\
             \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.2,\"cached\":false}]}",
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s.matches("\"jobs\":4").count(), KEEP_PER_KEY, "{s}");
        assert_eq!(s.matches("\"jobs\":1,").count(), 1, "{s}");
        assert!(!s.contains("\"seq\":0,"), "{s}");
        assert!(s.contains(&format!("\"seq\":{},", KEEP_PER_KEY + 4)), "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_records_are_skipped_not_mangled() {
        let (dir, path) = temp_log("future");
        // A hypothetical schema-4 record without sim_threads: a naive
        // migration would splice fields into a layout it cannot know.
        let future = "{\"schema\":4,\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
             \"new_field\":\"?\",\"experiments\":[]}";
        std::fs::write(&path, format!("{{\"runs\":[\n{future},\n{SCHEMA2}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA3).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(!s.contains("\"schema\":4"), "future record kept: {s}");
        assert!(!s.contains("new_field"), "{s}");
        // The rest of the file is still normalized as usual.
        assert_eq!(s.matches("\"schema\":3").count(), 2, "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn current_schema_record_missing_sim_threads_gains_the_default() {
        let (dir, path) = temp_log("missing-field");
        // A schema-3 line whose sim_threads field went missing (hand
        // edit, partial write): degrade to the schema-2 default rather
        // than leaving the file with mixed layouts.
        let damaged = SCHEMA3.replace("\"sim_threads\":2,", "");
        std::fs::write(&path, format!("{{\"runs\":[\n{damaged}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA3).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"sim_threads\":1,\"cache\":true"), "{s}");
        assert_eq!(s.matches("\"sim_threads\":").count(), 2, "{s}");
        assert!(!s.contains("\"schema\":2"), "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_log_recovers_with_just_the_new_record() {
        let (dir, path) = temp_log("truncated");
        append_bench_record(&path, SCHEMA3).unwrap();
        let healthy = std::fs::read_to_string(&path).unwrap();
        // A crash mid-write under the old non-atomic scheme could leave
        // any prefix of the document. Every truncation point must
        // recover: the next append starts the log over with its record.
        for cut in [0, 1, healthy.len() / 2, healthy.len() - 2] {
            std::fs::write(&path, &healthy[..cut]).unwrap();
            append_bench_record(&path, SCHEMA3).unwrap();
            let s = std::fs::read_to_string(&path).unwrap();
            assert_eq!(s.matches("\"schema\":3").count(), 1, "cut at {cut}: {s}");
            assert!(s.starts_with("{\"runs\":[\n"), "cut at {cut}: {s}");
            assert!(s.ends_with("]}\n"), "cut at {cut}: {s}");
            assert_eq!(s.matches('{').count(), s.matches('}').count());
        }
        // And no temp files linger from the atomic rewrites.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "leaked temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_threads_separates_compaction_keys() {
        let one = SCHEMA3.replace("\"sim_threads\":2", "\"sim_threads\":1");
        assert_ne!(bench_key(SCHEMA3), bench_key(&one));
        let other_jobs = SCHEMA3.replace("\"jobs\":4", "\"jobs\":1");
        assert_ne!(bench_key(SCHEMA3), bench_key(&other_jobs));
        let other_ids = SCHEMA3.replace("em3d-mp", "em3d-sm");
        assert_ne!(bench_key(SCHEMA3), bench_key(&other_ids));
        assert_eq!(bench_key(SCHEMA3), bench_key(SCHEMA3));
    }
}
