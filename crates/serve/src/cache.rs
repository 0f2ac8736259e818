//! The content-addressed decision cache.
//!
//! A tuning decision is a pure function of `(canonicalised kernel source,
//! kernel name, device profile, launch geometry)` — the
//! [`grover_core::tune_key`] fingerprint — *at one pass revision*. The
//! cache therefore has two layers:
//!
//! * [`DecisionCache`]: an in-memory LRU serving hot keys without locks
//!   held across measurements;
//! * [`DecisionStore`]: an append-only checksummed journal under
//!   `--cache-dir` (see [`crate::journal`] for the framing), flushed per
//!   write (kill-safe) and replayed on boot to warm-start the LRU. Replay
//!   never fails: torn or corrupt records are skipped and counted, and
//!   every intact record is salvaged. Entries carry the pass-version
//!   *epoch* ([`grover_core::pass_fingerprint`]); entries from another
//!   epoch are skipped at load, so bumping
//!   [`grover_core::TRANSFORM_REVISION`] invalidates every persisted
//!   decision without deleting history. When the journal accumulates
//!   enough dead weight (superseded, stale-epoch or damaged lines), it is
//!   compacted atomically: live records are rewritten to a temp file,
//!   fsynced, and renamed over the journal.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use grover_obs::json::{self, Json, Obj};
use grover_runtime::fault::IoFaults;
use grover_tuner::Decision;

use crate::journal;

/// The serialisable form of one cached tuning decision.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// The [`grover_core::tune_key`] fingerprint, 32 hex digits.
    pub fingerprint: String,
    /// Pass-version epoch the decision was produced under.
    pub epoch: String,
    /// Device profile name.
    pub device: String,
    /// Kernel name.
    pub kernel: String,
    /// `Choice::kind()` tag.
    pub choice: String,
    /// The winning pass sequence (spec form, [`Decision::sequence`]).
    /// Empty on records persisted before sequence search existed.
    pub sequence: String,
    /// Normalised performance `t_with / t_without`.
    pub np: f64,
    /// Simulated cycles with local memory.
    pub cycles_with: u64,
    /// Simulated cycles without local memory.
    pub cycles_without: u64,
    /// `FallbackReason::kind()` tag, when demoted.
    pub fallback_kind: Option<String>,
    /// Human-readable fallback detail, when demoted.
    pub fallback_detail: Option<String>,
    /// Hash of the feature schema `features` was extracted under.
    /// `None` on records persisted before predictive tuning existed.
    pub feature_schema_hash: Option<String>,
    /// The static feature vector of the tuned kernel + geometry, in
    /// `grover_predict::FEATURE_NAMES` order. Persisting it alongside
    /// the measured decision makes every journal line a training row —
    /// `grover corpus export` joins on these fields.
    pub features: Option<Vec<f64>>,
}

impl DecisionRecord {
    /// Build a record from a tuner [`Decision`].
    pub fn from_decision(
        fingerprint: &str,
        epoch: &str,
        kernel: &str,
        d: &Decision,
    ) -> DecisionRecord {
        DecisionRecord {
            fingerprint: fingerprint.to_string(),
            epoch: epoch.to_string(),
            device: d.device.clone(),
            kernel: kernel.to_string(),
            choice: d.choice.kind().to_string(),
            sequence: d.sequence.clone(),
            np: d.np,
            cycles_with: d.cycles_with,
            cycles_without: d.cycles_without,
            fallback_kind: d.fallback.as_ref().map(|f| f.kind().to_string()),
            fallback_detail: d.fallback.as_ref().map(|f| f.to_string()),
            feature_schema_hash: None,
            features: None,
        }
    }

    /// Attach the static feature vector (and its schema hash), turning
    /// this record into a corpus training row.
    pub fn with_features(mut self, schema_hash: &str, values: &[f64]) -> DecisionRecord {
        self.feature_schema_hash = Some(schema_hash.to_string());
        self.features = Some(values.to_vec());
        self
    }

    /// Render as one JSON object (one store line).
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("fingerprint", &self.fingerprint)
            .str("epoch", &self.epoch)
            .str("device", &self.device)
            .str("kernel", &self.kernel)
            .str("choice", &self.choice)
            .str("sequence", &self.sequence)
            .f64("np", self.np)
            .u64("cycles_with", self.cycles_with)
            .u64("cycles_without", self.cycles_without);
        obj = match (&self.fallback_kind, &self.fallback_detail) {
            (Some(k), Some(d)) => obj.raw(
                "fallback",
                &Obj::new().str("kind", k).str("detail", d).finish(),
            ),
            _ => obj.null("fallback"),
        };
        if let (Some(h), Some(f)) = (&self.feature_schema_hash, &self.features) {
            obj = obj
                .str("feature_schema_hash", h)
                .raw("features", &json::array(f.iter().map(|v| json::number(*v))));
        }
        obj.finish()
    }

    /// Parse one store line.
    pub fn from_json(v: &Json) -> Result<DecisionRecord, String> {
        let field = |k: &str| {
            v.str_of(k)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field `{k}`"))
        };
        let (fallback_kind, fallback_detail) = match v.get("fallback") {
            Some(Json::Obj(_)) => {
                let f = v.get("fallback").unwrap();
                (
                    f.str_of("kind").map(str::to_string),
                    f.str_of("detail").map(str::to_string),
                )
            }
            _ => (None, None),
        };
        Ok(DecisionRecord {
            fingerprint: field("fingerprint")?,
            epoch: field("epoch")?,
            device: field("device")?,
            kernel: field("kernel")?,
            choice: field("choice")?,
            // Tolerant: records from before sequence search have no field.
            sequence: v.str_of("sequence").unwrap_or("").to_string(),
            np: v.f64_of("np").ok_or("missing field `np`")?,
            cycles_with: v
                .u64_of("cycles_with")
                .ok_or("missing field `cycles_with`")?,
            cycles_without: v
                .u64_of("cycles_without")
                .ok_or("missing field `cycles_without`")?,
            fallback_kind,
            fallback_detail,
            // Tolerant: records from before predictive tuning have none.
            feature_schema_hash: v.str_of("feature_schema_hash").map(str::to_string),
            features: v
                .get("features")
                .and_then(Json::as_arr)
                .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>()),
        })
    }
}

/// In-memory LRU over [`DecisionRecord`]s, keyed by fingerprint.
pub struct DecisionCache {
    capacity: usize,
    map: HashMap<String, (DecisionRecord, u64)>,
    order: BTreeMap<u64, String>,
    tick: u64,
    evictions: u64,
}

impl DecisionCache {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> DecisionCache {
        DecisionCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up a fingerprint, marking the entry most-recently used.
    pub fn get(&mut self, fingerprint: &str) -> Option<DecisionRecord> {
        self.tick += 1;
        let tick = self.tick;
        let (rec, used) = self.map.get_mut(fingerprint)?;
        self.order.remove(used);
        *used = tick;
        self.order.insert(tick, fingerprint.to_string());
        Some(rec.clone())
    }

    /// Insert (or refresh) a record, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, rec: DecisionRecord) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, used)) = self.map.get(&rec.fingerprint) {
            self.order.remove(used);
        } else if self.map.len() >= self.capacity {
            // Evict the coldest entry (smallest tick).
            if let Some((&cold, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&cold) {
                    self.map.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
        self.order.insert(tick, rec.fingerprint.clone());
        self.map.insert(rec.fingerprint.clone(), (rec, tick));
    }
}

/// What a store load found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Records loaded live (current epoch, latest per fingerprint).
    pub loaded: usize,
    /// Records skipped because their epoch differs from the current pass
    /// fingerprint (invalidated by a pass-version bump).
    pub stale_epoch: usize,
    /// Records whose length or CRC-32 did not match their payload (bit
    /// flips, manual edits, mid-file damage).
    pub corrupt: usize,
    /// Trailing records cut short by a crash mid-write.
    pub torn: usize,
    /// Records superseded by a later record for the same fingerprint.
    pub superseded: usize,
}

/// The persistent checksummed journal behind the in-memory LRU.
///
/// Besides the append handle, the store keeps an index of *live* records
/// (latest per fingerprint, current epoch) so it can compact the journal
/// without consulting the LRU — the LRU is capacity-bounded, the store's
/// retention is not.
pub struct DecisionStore {
    path: PathBuf,
    out: File,
    /// Live records in first-seen order (stable warm-start order).
    order: Vec<String>,
    /// Latest record per fingerprint.
    live: HashMap<String, DecisionRecord>,
    /// Physical lines in the journal, appends included.
    total_lines: usize,
    /// Compact once the dead weight exceeds this (and outnumbers the live).
    compact_threshold: usize,
    compactions: u64,
    epoch: String,
    /// The I/O fault plan appends and compactions consult.
    io_faults: IoFaults,
}

/// File name of the checksummed journal inside `--cache-dir`.
pub const JOURNAL_FILE: &str = "decisions.journal";

impl DecisionStore {
    /// Open (creating if needed) the store under `dir`, replaying the
    /// journal into the live index. Replay is infallible by design:
    /// damaged records are counted, never fatal.
    pub fn open(
        dir: &Path,
        epoch: &str,
        compact_threshold: usize,
    ) -> std::io::Result<(DecisionStore, LoadStats)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut store = DecisionStore {
            path: path.clone(),
            out: OpenOptions::new().create(true).append(true).open(&path)?,
            order: Vec::new(),
            live: HashMap::new(),
            total_lines: 0,
            compact_threshold: compact_threshold.max(1),
            compactions: 0,
            epoch: epoch.to_string(),
            io_faults: IoFaults::default(),
        };
        let mut stats = LoadStats::default();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for (line, terminated) in journal::lines(&text) {
                store.total_lines += 1;
                match journal::classify(line, terminated) {
                    journal::Line::Record(p) => store.replay_payload(p, &mut stats),
                    journal::Line::Torn => stats.torn += 1,
                    journal::Line::Corrupt => stats.corrupt += 1,
                }
            }
            // Repair a torn tail: truncate back to the last terminated
            // line, otherwise the next append would glue onto the torn
            // bytes and damage the *new* record too.
            if !text.is_empty() && !text.ends_with('\n') {
                let keep = text.rfind('\n').map(|p| p + 1).unwrap_or(0);
                store.out.set_len(keep as u64)?;
                store.total_lines -= 1; // the torn line is physically gone
            }
        }
        stats.loaded = store.live.len();
        Ok((store, stats))
    }

    /// Feed one parsed-payload line into the live index.
    fn replay_payload(&mut self, payload: &str, stats: &mut LoadStats) {
        match json::parse(payload).and_then(|v| DecisionRecord::from_json(&v)) {
            Ok(rec) if rec.epoch == self.epoch => {
                if self.index(rec) {
                    stats.superseded += 1;
                }
            }
            Ok(_) => stats.stale_epoch += 1,
            Err(_) => stats.corrupt += 1,
        }
    }

    /// Record `rec` as live (later lines win). Returns whether a previous
    /// record for the same fingerprint was superseded.
    fn index(&mut self, rec: DecisionRecord) -> bool {
        let fp = rec.fingerprint.clone();
        let superseded = self.live.insert(fp.clone(), rec).is_some();
        if !superseded {
            self.order.push(fp);
        }
        superseded
    }

    /// Route appends and compactions through `faults` (the server's
    /// configured I/O plan).
    pub(crate) fn set_io_faults(&mut self, faults: IoFaults) {
        self.io_faults = faults;
    }

    /// Path of the underlying journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live records in first-seen order, for warm-starting the LRU.
    pub fn live_records(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.order.iter().filter_map(|fp| self.live.get(fp))
    }

    /// Live record count.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Journal lines a compaction would drop (superseded, stale epoch or
    /// damaged).
    pub fn dead_len(&self) -> usize {
        self.total_lines - self.live.len()
    }

    /// Compactions performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Append one record (framed + checksummed) and flush it to disk
    /// (kill-safe persistence: every published decision survives an
    /// abrupt exit). May trigger an atomic compaction afterwards.
    ///
    /// On error the record must be treated as NOT persisted — the caller
    /// must not acknowledge the decision to a client.
    pub fn append(&mut self, rec: &DecisionRecord) -> std::io::Result<()> {
        journal::append_framed(&mut self.out, &rec.to_json(), &self.io_faults)?;
        self.total_lines += 1;
        self.index(rec.clone());
        self.maybe_compact();
        Ok(())
    }

    /// Compact when the dead weight crosses the threshold. Compaction
    /// failures are swallowed: the journal stays append-correct, just
    /// bigger than it needs to be.
    fn maybe_compact(&mut self) {
        if self.dead_len() >= self.compact_threshold && self.dead_len() >= self.live.len() {
            let _ = self.compact();
        }
    }

    /// Rewrite the journal to live records only — write-new + fsync +
    /// rename, so a crash leaves either the old or the new journal.
    pub fn compact(&mut self) -> std::io::Result<()> {
        let payloads: Vec<String> = self.live_records().map(DecisionRecord::to_json).collect();
        journal::rewrite_atomic(&self.path, &payloads, &self.io_faults)?;
        self.out = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.total_lines = self.live.len();
        self.compactions += 1;
        Ok(())
    }

    /// Flush buffered writes (a no-op after `append`, kept for the
    /// graceful-shutdown path's explicit contract).
    pub fn flush(&mut self) -> std::io::Result<()> {
        use std::io::Write;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: &str, epoch: &str) -> DecisionRecord {
        DecisionRecord {
            fingerprint: fp.to_string(),
            epoch: epoch.to_string(),
            device: "SNB".to_string(),
            kernel: "k".to_string(),
            choice: "without_local_memory".to_string(),
            sequence: "local-removal,barrier-elim,index-simplify".to_string(),
            np: 1.25,
            cycles_with: 100,
            cycles_without: 80,
            fallback_kind: None,
            fallback_detail: None,
            feature_schema_hash: None,
            features: None,
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut r = rec("ab", "e1");
        r.fallback_kind = Some("deadline".into());
        r.fallback_detail = Some("took too long".into());
        let parsed = DecisionRecord::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = DecisionCache::new(2);
        c.insert(rec("a", "e"));
        c.insert(rec("b", "e"));
        assert!(c.get("a").is_some()); // a is now hottest
        c.insert(rec("c", "e")); // evicts b
        assert_eq!(c.evictions(), 1);
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = DecisionCache::new(2);
        c.insert(rec("a", "e"));
        c.insert(rec("a", "e"));
        c.insert(rec("b", "e"));
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.len(), 2);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("grover-serve-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path, epoch: &str) -> (DecisionStore, LoadStats) {
        DecisionStore::open(dir, epoch, 1024).unwrap()
    }

    #[test]
    fn store_roundtrips_and_filters_epochs() {
        let dir = scratch("epochs");
        {
            let (mut store, _) = open(&dir, "new");
            store.append(&rec("a", "new")).unwrap();
            store.append(&rec("b", "old")).unwrap();
            store.append(&rec("c", "new")).unwrap();
        }
        // Simulate a record truncated by a killed process mid-write.
        {
            use std::io::Write;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap();
            let full = journal::frame(&rec("t", "new").to_json());
            f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        }
        let (store, stats) = open(&dir, "new");
        assert_eq!(
            stats,
            LoadStats {
                loaded: 2,
                stale_epoch: 1,
                corrupt: 0,
                torn: 1,
                superseded: 0,
            }
        );
        let fps: Vec<&str> = store
            .live_records()
            .map(|r| r.fingerprint.as_str())
            .collect();
        assert_eq!(fps, ["a", "c"], "stale epoch must be invalidated");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_lines_win_on_replay() {
        let dir = scratch("laterwins");
        {
            let (mut store, _) = open(&dir, "e");
            let mut first = rec("a", "e");
            first.np = 1.0;
            store.append(&first).unwrap();
            let mut second = rec("a", "e");
            second.np = 2.0;
            store.append(&second).unwrap();
        }
        let (store, stats) = open(&dir, "e");
        assert_eq!(stats.loaded, 1);
        assert_eq!(stats.superseded, 1);
        assert_eq!(store.live_records().next().unwrap().np, 2.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The satellite fixture test: a bit-flipped record mid-file and a
    /// torn record at the tail are both skipped and counted, and every
    /// intact record — before and after the damage — is salvaged.
    #[test]
    fn replay_salvages_every_intact_record_around_damage() {
        let dir = scratch("salvage");
        {
            let (mut store, _) = open(&dir, "e");
            for fp in ["a", "b", "c", "d"] {
                store.append(&rec(fp, "e")).unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        // Bit-flip record "b"'s payload (CRC now mismatches) and tear the
        // tail by appending half a record with no newline.
        let mut damaged = text.replace("\"b\"", "\"B\"");
        assert_ne!(damaged, text);
        let half = journal::frame(&rec("t", "e").to_json());
        damaged.push_str(&half[..half.len() / 3]);
        std::fs::write(&path, &damaged).unwrap();

        let (store, stats) = open(&dir, "e");
        assert_eq!(stats.corrupt, 1, "{stats:?}");
        assert_eq!(stats.torn, 1, "{stats:?}");
        assert_eq!(stats.loaded, 3, "{stats:?}");
        let fps: Vec<&str> = store
            .live_records()
            .map(|r| r.fingerprint.as_str())
            .collect();
        assert_eq!(fps, ["a", "c", "d"], "intact records around damage survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn tail must be truncated away on open — otherwise the next
    /// append glues onto the torn bytes and the *new* (acknowledged!)
    /// record is lost on the following restart.
    #[test]
    fn append_after_torn_tail_survives_the_next_restart() {
        let dir = scratch("tornappend");
        {
            let (mut store, _) = open(&dir, "e");
            store.append(&rec("a", "e")).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let torn = journal::frame(&rec("t", "e").to_json());
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        }
        {
            let (mut store, stats) = open(&dir, "e");
            assert_eq!(stats.torn, 1);
            store.append(&rec("fresh", "e")).unwrap();
        }
        let (store, stats) = open(&dir, "e");
        assert_eq!(stats.torn, 0, "torn tail repaired by the previous open");
        assert_eq!(stats.loaded, 2, "{stats:?}");
        let fps: Vec<&str> = store
            .live_records()
            .map(|r| r.fingerprint.as_str())
            .collect();
        assert_eq!(fps, ["a", "fresh"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A line that is not `J1`-framed — bare JSON included — is damage:
    /// corrupt mid-file, torn as the unterminated tail. It is counted,
    /// never fatal, and the records around it still load.
    #[test]
    fn bare_json_lines_are_damage_and_the_records_around_them_load() {
        let dir = scratch("barejson");
        {
            let (mut store, _) = open(&dir, "e");
            store.append(&rec("a", "e")).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&rec("bare", "e").to_json());
        text.push('\n');
        text.push_str(&journal::frame(&rec("c", "e").to_json()));
        text.push_str(&rec("tail", "e").to_json());
        std::fs::write(&path, &text).unwrap();

        let (store, stats) = open(&dir, "e");
        assert_eq!(
            (stats.corrupt, stats.torn, stats.loaded),
            (1, 1, 2),
            "{stats:?}"
        );
        let fps: Vec<&str> = store
            .live_records()
            .map(|r| r.fingerprint.as_str())
            .collect();
        assert_eq!(fps, ["a", "c"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_triggers_past_dead_threshold_and_shrinks_the_journal() {
        let dir = scratch("compact");
        let (mut store, _) = DecisionStore::open(&dir, "e", 4).unwrap();
        // Re-append the same fingerprint: each append supersedes the last.
        for i in 0..6 {
            let mut r = rec("hot", "e");
            r.np = f64::from(i);
            store.append(&r).unwrap();
        }
        assert!(store.compactions() >= 1, "threshold crossed at 4 dead");
        assert_eq!(store.live_len(), 1);
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(
            text.lines().count() <= 2,
            "journal rewritten to live records: {text}"
        );
        drop(store);
        let (store, stats) = open(&dir, "e");
        assert_eq!(stats.loaded, 1);
        assert_eq!(store.live_records().next().unwrap().np, 5.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
