//! Persistent, content-addressed QoR store — a durable, verifiable log.
//!
//! Every evaluated (design, evaluation-config, flow) triple maps to exactly
//! one [`Qor`] because the whole pipeline is deterministic, so results are
//! addressed by content: a stable design fingerprint, a fingerprint of the
//! cell library + mapper parameters, and the flow's ABC-style script.
//!
//! ## On-disk format
//!
//! Records live in JSON-lines files, each line framed as
//! `v2 <crc32-hex8> <json>` — the checksum covers the JSON bytes, so a bit
//! flip anywhere in a record is detected rather than silently served.
//! `#`-prefixed comment lines (probe writes) are skipped silently.
//!
//! The store is **segmented**: records append to a live segment
//! (`<base>.NNNNNN.seg`) with size-based rotation.  The segment files are
//! the store: an open lists them by scanning the directory, in id order,
//! which is append order, and the last one is live.  A segment becomes
//! visible only as an empty file (a fresh store, a rotation) or by an atomic
//! rename of fsynced contents (a compaction, a scrub heal).  Records are
//! idempotent facts — one key always maps to one QoR, and duplicates resolve
//! last-write-wins — so a crash at any point costs at most duplicate lines,
//! which the next compaction drops.  A `<base>.manifest` segment list left
//! by an older build is removed at open.
//!
//! A bare base file with no segments is a plain JSON-lines store from
//! before format v2.  It is not read: [`QorStore::open`] refuses
//! it with [`std::io::ErrorKind::InvalidData`] and leaves it as it is.
//!
//! ## Scrub and quarantine
//!
//! [`QorStore::open`] scrubs every segment, distinguishing a benign
//! **torn tail** (a crash mid-append tore the final line) from **mid-file
//! corruption** (a checksum or parse failure on an interior line).  Bad
//! spans are copied to a `<base>.quarantine` sidecar — bytes are never
//! silently discarded — and the damaged file is healed (tail truncated,
//! corrupt lines removed via atomic rewrite) so a reopen is clean.
//!
//! ## Degraded mode
//!
//! Persistent append failure (ENOSPC, EIO) flips the store to
//! [`StoreMode::Degraded`] after a consecutive-failure threshold: lookups
//! keep answering from the in-memory index, new results are parked in a
//! bounded queue, and a successful [`QorStore::probe`] (periodically driven
//! by `flowd`) drains the parked queue and recovers to [`StoreMode::Ok`].

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use flow_core::{crc32, Fingerprint};
use serde::{Deserialize, Serialize};
use synth::Qor;

/// The address of one evaluation result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Fingerprint of the design's structure.
    pub design: Fingerprint,
    /// Fingerprint of the evaluation configuration (library + mapper).
    pub config: Fingerprint,
    /// The flow as an ABC-style script (`cmd; cmd; …`).
    pub flow: String,
}

/// One JSON record of the store (the payload inside the v2 frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QorRecord {
    /// Hex design fingerprint.
    design: String,
    /// Hex evaluation-config fingerprint.
    config: String,
    /// Flow script.
    flow: String,
    /// The evaluation result.
    qor: Qor,
}

/// Health of the persistent layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Appends reach the disk.
    Ok,
    /// Appends fail persistently; the store serves from memory and parks
    /// new records until a probe write succeeds.
    Degraded,
}

impl StoreMode {
    /// The wire name used by `/healthz`, `/stats` and `flowc`.
    pub fn as_str(self) -> &'static str {
        match self {
            StoreMode::Ok => "ok",
            StoreMode::Degraded => "degraded",
        }
    }
}

/// Consecutive append failures before the store flips to
/// [`StoreMode::Degraded`].
const DEGRADED_AFTER: u32 = 3;

/// Maximum records parked while degraded (oldest dropped beyond this).
const PARKED_CAP: usize = 4096;

/// Settings of the durable log.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rotate the live segment once it reaches this size.
    pub segment_max_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_max_bytes: 8 * 1024 * 1024,
        }
    }
}

/// What [`QorStore::compact`] did to the backing files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CompactionReport {
    /// Distinct records surviving compaction.
    pub records: usize,
    /// Duplicate lines (same key appearing more than once) dropped.
    pub duplicates_dropped: usize,
    /// Malformed lines dropped (already quarantined at open time).
    pub malformed_dropped: usize,
    /// Store size before compaction, in bytes.
    pub bytes_before: u64,
    /// Store size after compaction, in bytes.
    pub bytes_after: u64,
}

/// A point-in-time summary of the persistent layer, for monitoring
/// endpoints (`flowd /stats`) and `flowc store fsck`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoreSummary {
    /// `"ok"` or `"degraded"`.
    pub mode: String,
    /// Records in the in-memory index.
    pub records: usize,
    /// Segment files (0 for in-memory stores).
    pub segments: usize,
    /// Total on-disk bytes.
    pub disk_bytes: u64,
    /// Torn final lines healed at open time.
    pub torn_tail: usize,
    /// Mid-file corrupt lines quarantined at open time.
    pub corrupt_records: usize,
    /// Lines copied to the `.quarantine` sidecar at open time.
    pub quarantined: usize,
    /// Superseded duplicate lines observed at open time.
    pub duplicates: usize,
    /// Records parked in memory while degraded.
    pub parked: usize,
    /// Parked records dropped to the queue bound.
    pub parked_dropped: usize,
}

/// Paths derived from the store's base path.
#[derive(Debug, Clone)]
struct Layout {
    base: PathBuf,
}

impl Layout {
    fn sibling(&self, suffix: &str) -> PathBuf {
        let mut name = self.base.as_os_str().to_os_string();
        name.push(suffix);
        PathBuf::from(name)
    }

    fn quarantine(&self) -> PathBuf {
        self.sibling(".quarantine")
    }

    fn segment(&self, id: u64) -> PathBuf {
        self.sibling(&format!(".{id:06}.seg"))
    }

    fn dir(&self) -> PathBuf {
        match self.base.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
            _ => PathBuf::from("."),
        }
    }

    /// Segment ids present on disk, sorted: the store's append order.
    fn scan_segments(&self) -> Vec<u64> {
        let Some(file_name) = self.base.file_name().and_then(|n| n.to_str()) else {
            return Vec::new();
        };
        let prefix = format!("{file_name}.");
        let mut ids = Vec::new();
        if let Ok(entries) = std::fs::read_dir(self.dir()) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(middle) = name
                    .strip_prefix(&prefix)
                    .and_then(|rest| rest.strip_suffix(".seg"))
                else {
                    continue;
                };
                if middle.len() == 6 && middle.bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(id) = middle.parse::<u64>() {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }
}

/// A persistent map from [`StoreKey`] to [`Qor`], with optional disk backing.
#[derive(Debug)]
pub struct QorStore {
    index: HashMap<StoreKey, Qor>,
    writer: Option<File>,
    layout: Option<Layout>,
    /// Segment ids in append order, the last one live; empty for an
    /// in-memory store.
    segments: Vec<u64>,
    live_bytes: u64,
    options: StoreOptions,
    mode: StoreMode,
    consecutive_failures: u32,
    parked: VecDeque<(StoreKey, Qor)>,
    parked_dropped: usize,
    loaded: usize,
    torn_tail: usize,
    corrupt: usize,
    duplicates: usize,
    quarantined: usize,
}

impl QorStore {
    /// Creates a store with no disk backing (useful for tests and one-shot
    /// runs).
    pub fn in_memory() -> Self {
        QorStore {
            index: HashMap::new(),
            writer: None,
            layout: None,
            segments: Vec::new(),
            live_bytes: 0,
            options: StoreOptions::default(),
            mode: StoreMode::Ok,
            consecutive_failures: 0,
            parked: VecDeque::new(),
            parked_dropped: 0,
            loaded: 0,
            torn_tail: 0,
            corrupt: 0,
            duplicates: 0,
            quarantined: 0,
        }
    }

    /// Whether anything the open would read is at `path`: a segment beside
    /// the base path, or a file at it (a store from before format v2, which
    /// [`QorStore::open`] refuses with its own error).
    pub fn exists(path: impl AsRef<Path>) -> bool {
        let layout = Layout {
            base: path.as_ref().to_path_buf(),
        };
        layout.base.exists() || !layout.scan_segments().is_empty()
    }

    /// Opens (or creates) the store at `path` with default [`StoreOptions`].
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(path, StoreOptions::default())
    }

    /// Opens (or creates) the store at `path`, scrubbing every record.
    ///
    /// The open is a **scrub**: each line's checksum and shape are verified;
    /// a torn final line is counted in [`StoreSummary::torn_tail`], any
    /// other bad line in [`StoreSummary::corrupt_records`].  Bad spans are
    /// copied to the `.quarantine` sidecar and the damaged file healed, so
    /// an immediate reopen reports a clean store.
    ///
    /// The segments are the files `<base>.NNNNNN.seg` on disk, in id order;
    /// a fresh store starts segment 1.  A `<base>.manifest` left by an older
    /// build is removed, so a downgraded build finds none and scans the
    /// directory too rather than trust a stale list.
    ///
    /// A bare base file with no segments is a plain JSON-lines store from
    /// before format v2, which is no longer read: `open` returns
    /// [`std::io::ErrorKind::InvalidData`] before writing anything, so the
    /// file stays as it was.
    ///
    /// Duplicate keys (concatenated stores, racing appenders) resolve
    /// **last-write-wins** in append order; the superseded count is reported
    /// in [`StoreSummary::duplicates`].
    ///
    /// The scrub heals files in place, so the store must have a single
    /// writing process at a time (the daemon owns its store).
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> std::io::Result<Self> {
        let layout = Layout {
            base: path.as_ref().to_path_buf(),
        };
        let mut segments = layout.scan_segments();
        if segments.is_empty() && layout.base.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "`{}` is a plain JSON-lines store from before format v2, which is no \
                     longer read; move it aside to start a new store at this path",
                    layout.base.display()
                ),
            ));
        }
        if let Some(parent) = layout.base.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        match std::fs::remove_file(layout.sibling(".manifest")) {
            Ok(()) => fsync_dir(&layout.dir())?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if segments.is_empty() {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(layout.segment(1))?
                .sync_all()?;
            fsync_dir(&layout.dir())?;
            segments.push(1);
        }

        let mut store = QorStore::in_memory();
        store.layout = Some(layout.clone());
        store.options = options;
        store.segments = segments;
        for id in store.segments.clone() {
            store.scrub_file(&layout.segment(id))?;
        }
        store.open_live(&layout)?;
        Ok(store)
    }

    /// Opens the append writer on the last segment.
    fn open_live(&mut self, layout: &Layout) -> std::io::Result<()> {
        let live = layout.segment(*self.segments.last().expect("a live segment"));
        let writer = OpenOptions::new().create(true).append(true).open(&live)?;
        self.live_bytes = writer.metadata()?.len();
        self.writer = Some(writer);
        Ok(())
    }

    /// Scrubs one segment into the index, quarantining and healing any
    /// damage.
    fn scrub_file(&mut self, path: &Path) -> std::io::Result<()> {
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let layout = self.layout.clone().expect("disk-backed");

        // Split into lines by hand so byte offsets (for healing) and the
        // missing-final-newline case stay visible.
        let mut lines: Vec<(usize, usize, bool)> = Vec::new(); // (start, end, newline)
        let mut start = 0usize;
        for (i, &b) in data.iter().enumerate() {
            if b == b'\n' {
                lines.push((start, i, true));
                start = i + 1;
            }
        }
        if start < data.len() {
            lines.push((start, data.len(), false));
        }

        let mut corrupt_spans: Vec<(usize, usize, usize)> = Vec::new(); // (line no, start, end)
        let mut torn_span: Option<(usize, usize, usize)> = None;
        let mut needs_newline = false;
        for (no, &(s, e, newline)) in lines.iter().enumerate() {
            let raw = &data[s..e];
            let text = String::from_utf8_lossy(raw);
            let trimmed = text.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match parse_line(trimmed) {
                Some((key, qor)) => {
                    if self.index.insert(key, qor).is_some() {
                        self.duplicates += 1;
                    }
                    self.loaded += 1;
                    if !newline {
                        needs_newline = true;
                    }
                }
                None if !newline => {
                    // A bad final line without its newline: the classic
                    // crash-torn append — in the live segment, or in a
                    // sealed one after a crash during rotation.
                    torn_span = Some((no, s, e));
                }
                None => corrupt_spans.push((no, s, e)),
            }
        }
        self.torn_tail += usize::from(torn_span.is_some());
        self.corrupt += corrupt_spans.len();

        if corrupt_spans.is_empty() && torn_span.is_none() {
            if needs_newline {
                // A parseable final record missing only its newline: close
                // the line so the next append starts fresh.
                let mut f = OpenOptions::new().append(true).open(path)?;
                f.write_all(b"\n")?;
                f.sync_all()?;
            }
            return Ok(());
        }

        // Quarantine first (no byte is discarded before its copy is
        // durable), then heal.  A crash in between re-quarantines on the
        // next open — duplicated sidecar entries, never lost ones.
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        {
            let mut q = OpenOptions::new()
                .create(true)
                .append(true)
                .open(layout.quarantine())?;
            for &(no, s, e) in corrupt_spans.iter().chain(torn_span.iter()) {
                let reason = if torn_span == Some((no, s, e)) {
                    "torn-tail"
                } else {
                    "corrupt"
                };
                writeln!(q, "# {reason} file={file_name} line={}", no + 1)?;
                q.write_all(&data[s..e])?;
                q.write_all(b"\n")?;
                self.quarantined += 1;
            }
            q.sync_all()?;
        }

        if corrupt_spans.is_empty() {
            // Only a torn tail: truncate the fragment away.
            let (_, s, _) = torn_span.expect("checked");
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(s as u64)?;
            f.sync_all()?;
        } else {
            // Mid-file corruption: rewrite the file atomically without the
            // bad spans, preserving healthy lines byte-for-byte.
            let dead: std::collections::HashSet<usize> = corrupt_spans
                .iter()
                .chain(torn_span.iter())
                .map(|&(no, _, _)| no)
                .collect();
            let mut body = Vec::with_capacity(data.len());
            for (no, &(s, e, _)) in lines.iter().enumerate() {
                if dead.contains(&no) {
                    continue;
                }
                body.extend_from_slice(&data[s..e]);
                body.push(b'\n');
            }
            let tmp = layout.sibling(".scrub.tmp");
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)?;
            fsync_dir(&layout.dir())?;
        }
        Ok(())
    }

    /// Number of records currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Current health of the persistent layer.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// Total bytes of the on-disk store's segments.
    pub fn disk_bytes(&self) -> u64 {
        let Some(layout) = &self.layout else { return 0 };
        self.segments
            .iter()
            .filter_map(|id| std::fs::metadata(layout.segment(*id)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// A point-in-time summary of the persistent layer.
    pub fn summary(&self) -> StoreSummary {
        StoreSummary {
            mode: self.mode.as_str().to_string(),
            records: self.index.len(),
            segments: self.segments.len(),
            disk_bytes: self.disk_bytes(),
            torn_tail: self.torn_tail,
            corrupt_records: self.corrupt,
            quarantined: self.quarantined,
            duplicates: self.duplicates,
            parked: self.parked.len(),
            parked_dropped: self.parked_dropped,
        }
    }

    /// Looks up a result.
    pub fn get(&self, key: &StoreKey) -> Option<Qor> {
        self.index.get(key).copied()
    }

    /// Inserts a result, appending it durably when disk-backed.
    ///
    /// Each record (including its trailing newline) is submitted as one
    /// unbuffered write on an `O_APPEND` file; [`QorStore::flush`] is the
    /// fsync point.  The in-memory index is updated **regardless** of disk
    /// outcome, so the store degrades to cache-only operation under disk
    /// faults instead of re-evaluating or failing requests.
    ///
    /// An `Err` means one on-disk append failed (callers count it in
    /// `EvalStats::store_write_errors`).  After three consecutive failures
    /// the store flips to [`StoreMode::Degraded`]: further inserts park
    /// their records and return `Ok` without touching the disk until a
    /// [`QorStore::probe`] recovers it.
    pub fn insert(&mut self, key: StoreKey, qor: Qor) -> std::io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        if self.writer.is_none() {
            self.index.insert(key, qor);
            return Ok(());
        }
        if self.mode == StoreMode::Degraded {
            self.park(key.clone(), qor);
            self.index.insert(key, qor);
            return Ok(());
        }
        let line = match record_line(&key, &qor) {
            Ok(line) => line,
            Err(e) => {
                self.index.insert(key, qor);
                return Err(e);
            }
        };
        let appended = self.raw_append(line.as_bytes());
        match &appended {
            Ok(()) => {
                self.consecutive_failures = 0;
                self.maybe_rotate();
            }
            Err(_) => {
                self.consecutive_failures += 1;
                self.park(key.clone(), qor);
                if self.consecutive_failures >= DEGRADED_AFTER {
                    self.mode = StoreMode::Degraded;
                }
            }
        }
        self.index.insert(key, qor);
        appended
    }

    /// One unbuffered append to the live file.
    fn raw_append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let writer = self.writer.as_mut().expect("disk-backed");
        append_record(writer, bytes)?;
        self.live_bytes += bytes.len() as u64;
        Ok(())
    }

    fn park(&mut self, key: StoreKey, qor: Qor) {
        if self.parked.len() >= PARKED_CAP {
            self.parked.pop_front();
            self.parked_dropped += 1;
        }
        self.parked.push_back((key, qor));
    }

    /// Rotates the live segment when it outgrew the configured size.  A
    /// failed rotation is not an error: appends continue into the oversized
    /// segment and rotation is retried on the next insert.
    fn maybe_rotate(&mut self) {
        if self.live_bytes >= self.options.segment_max_bytes {
            let _ = self.rotate();
        }
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        flow_core::fail_point!("store.rotate", |_| Err(injected_io_error("rotate")));
        let layout = self.layout.clone().expect("disk-backed");
        // Seal the outgoing segment: everything in it is durable before a
        // later segment exists.
        self.writer.as_mut().expect("disk-backed").sync_all()?;
        let next = self.segments.last().copied().unwrap_or(0) + 1;
        // The next segment is born empty and durable; a crash from here on
        // leaves an empty last segment, which the next open appends to.
        let writer = OpenOptions::new()
            .create(true)
            .append(true)
            .open(layout.segment(next))?;
        writer.sync_all()?;
        fsync_dir(&layout.dir())?;
        flow_core::fail_point!("store.rotate.publish", |_| Err(injected_io_error(
            "rotate.publish"
        )));
        self.segments.push(next);
        self.writer = Some(writer);
        self.live_bytes = 0;
        Ok(())
    }

    /// Attempts to bring a degraded store back to [`StoreMode::Ok`] (and to
    /// drain any parked records).  Returns the health after the attempt.
    ///
    /// The probe is a real write: parked records are appended first; when
    /// none are waiting, a `# probe` comment line (skipped by the scrub)
    /// exercises the disk.  Success fsyncs and resets the failure counter.
    /// `flowd` drives this periodically from its watchdog thread.
    pub fn probe(&mut self) -> StoreMode {
        if self.writer.is_none() {
            return StoreMode::Ok;
        }
        if self.mode == StoreMode::Ok && self.parked.is_empty() {
            return StoreMode::Ok;
        }
        let mut wrote = false;
        while let Some((key, qor)) = self.parked.pop_front() {
            let Ok(line) = record_line(&key, &qor) else {
                continue; // unserializable: drop, the index still has it
            };
            if let Err(_e) = self.raw_append(line.as_bytes()) {
                self.parked.push_front((key, qor));
                self.consecutive_failures += 1;
                return self.mode;
            }
            wrote = true;
        }
        if !wrote && self.raw_append(b"# probe\n").is_err() {
            self.consecutive_failures += 1;
            return self.mode;
        }
        if self.flush().is_err() {
            return self.mode;
        }
        self.mode = StoreMode::Ok;
        self.consecutive_failures = 0;
        self.maybe_rotate();
        self.mode
    }

    /// Rewrites the store to exactly one line per key, dropping superseded
    /// duplicates, probe comments and (already-quarantined) bad lines, then
    /// reopens the append writer.  Records are written in a stable order
    /// (sorted by design, config, flow) so compacting the same store twice
    /// produces identical segment bytes.
    ///
    /// The survivors land in a single **new** segment, renamed into place
    /// once fsynced, and only then are the older segments retired: a crash
    /// at any point leaves the old store, or the new segment beside what is
    /// left of the old ones (duplicate lines, the same records).  No-op for
    /// in-memory stores.
    pub fn compact(&mut self) -> std::io::Result<CompactionReport> {
        let Some(layout) = self.layout.clone() else {
            return Ok(CompactionReport {
                records: self.index.len(),
                duplicates_dropped: 0,
                malformed_dropped: 0,
                bytes_before: 0,
                bytes_after: 0,
            });
        };
        self.flush()?;
        let bytes_before = self.disk_bytes();
        // Drop the append handle before replacing the files it points at.
        self.writer = None;
        let (new_id, bytes_after) = match self.publish_index(&layout) {
            Ok(published) => published,
            Err(e) => {
                // The old segments are untouched; restore the append handle
                // onto the live one and report the failure.
                self.open_live(&layout)?;
                return Err(e);
            }
        };

        // The new segment is durable and holds every record: retire the
        // superseded ones.  A leftover only costs duplicates, so errors are
        // ignored.
        for id in layout.scan_segments() {
            if id != new_id {
                let _ = std::fs::remove_file(layout.segment(id));
            }
        }
        self.segments = vec![new_id];
        self.open_live(&layout)?;

        let report = CompactionReport {
            records: self.index.len(),
            duplicates_dropped: self.duplicates,
            malformed_dropped: self.torn_tail + self.corrupt,
            bytes_before,
            bytes_after,
        };
        self.loaded = self.index.len();
        self.duplicates = 0;
        self.torn_tail = 0;
        self.corrupt = 0;
        Ok(report)
    }

    /// The compaction writer: writes the index, one line per key in a stable
    /// order, to a new segment after every existing one (temp file, fsync,
    /// rename, directory fsync).  Returns the segment id and size.  A failure
    /// removes the new segment again, leaving the disk as it was.
    fn publish_index(&self, layout: &Layout) -> std::io::Result<(u64, u64)> {
        let mut entries: Vec<(&StoreKey, &Qor)> = self.index.iter().collect();
        entries.sort_unstable_by(|(a, _), (b, _)| {
            (a.design.0, a.config.0, &a.flow).cmp(&(b.design.0, b.config.0, &b.flow))
        });
        let mut body = String::new();
        for (key, qor) in entries {
            body.push_str(&record_line(key, qor)?);
        }

        let new_id = layout.scan_segments().last().copied().unwrap_or(0) + 1;
        let new_seg = layout.segment(new_id);
        let tmp = layout.sibling(".compact.tmp");
        let staged = (|| -> std::io::Result<()> {
            write_compacted(&tmp, body.as_bytes())?;
            std::fs::rename(&tmp, &new_seg)?;
            fsync_dir(&layout.dir())?;
            flow_core::fail_point!("store.compact.publish", |_| Err(injected_io_error(
                "compact.publish"
            )));
            Ok(())
        })();
        if let Err(e) = staged {
            let _ = std::fs::remove_file(&tmp);
            let _ = std::fs::remove_file(&new_seg);
            return Err(e);
        }
        Ok((new_id, body.len() as u64))
    }

    /// Makes every appended record durable: records are written unbuffered,
    /// so this is the `fsync` point (`sync_all`).  Called at drain/compact
    /// time, not per insert — per-record fsync would serialize the service's
    /// hot path on the disk.
    pub fn flush(&mut self) -> std::io::Result<()> {
        flow_core::fail_point!("store.flush", |_| Err(injected_io_error("flush")));
        match &mut self.writer {
            Some(writer) => {
                writer.flush()?;
                writer.sync_all()
            }
            None => Ok(()),
        }
    }

    /// The drain-time durability barrier, the same fsync as
    /// [`QorStore::flush`]: the segments on disk are the whole store, so a
    /// restart finds exactly the acknowledged state.  Kept under this name
    /// for `EvalEngine::checkpoint_store` and `flowbench`.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        self.flush()
    }
}

/// Serializes one record as a framed v2 line (trailing newline included).
fn record_line(key: &StoreKey, qor: &Qor) -> std::io::Result<String> {
    let record = QorRecord {
        design: key.design.to_string(),
        config: key.config.to_string(),
        flow: key.flow.clone(),
        qor: *qor,
    };
    let json = serde_json::to_string(&record)
        .map_err(|e| std::io::Error::other(format!("cannot serialize store record: {e}")))?;
    Ok(format!("v2 {:08x} {json}\n", crc32::of(json.as_bytes())))
}

/// Parses a framed v2 record line, verifying its checksum.
fn parse_line(line: &str) -> Option<(StoreKey, Qor)> {
    let rest = line.strip_prefix("v2 ")?;
    let (crc_hex, json) = rest.split_at_checked(8)?;
    let json = json.strip_prefix(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc32::of(json.as_bytes()) != crc {
        return None;
    }
    let record: QorRecord = serde_json::from_str(json).ok()?;
    let key = StoreKey {
        design: Fingerprint::parse(&record.design)?,
        config: Fingerprint::parse(&record.config)?,
        flow: record.flow,
    };
    Some((key, record.qor))
}

/// Writes and `sync_all`s the compaction temp file, so the atomic rename
/// never publishes a file whose contents could still be lost to a crash.
fn write_compacted(tmp: &Path, body: &[u8]) -> std::io::Result<()> {
    flow_core::fail_point!("store.compact", |_| Err(injected_io_error("compact")));
    let mut file = File::create(tmp)?;
    file.write_all(body)?;
    file.sync_all()
}

/// One unbuffered append (failpoint-instrumented).
///
/// The `store.write` point injects clean append failures (ENOSPC-style);
/// `store.write.torn` writes a prefix of the record and kills the process —
/// the crash-consistency harness schedules it to manufacture torn tails.
fn append_record(writer: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    flow_core::fail_point!("store.write", |_| Err(injected_io_error("write")));
    #[cfg(feature = "failpoints")]
    if let Some(arg) = flow_core::fail::eval("store.write.torn") {
        let cut = arg
            .and_then(|a| a.parse::<usize>().ok())
            .unwrap_or(bytes.len() / 2)
            .min(bytes.len().saturating_sub(1));
        let _ = writer.write_all(&bytes[..cut]);
        let _ = writer.sync_all();
        std::process::abort();
    }
    writer.write_all(bytes)
}

#[cfg(feature = "failpoints")]
fn injected_io_error(op: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint: injected store {op} error"))
}

/// Fsyncs a directory so a just-renamed or just-created entry survives a
/// crash.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

impl Drop for QorStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(flow: &str) -> StoreKey {
        StoreKey {
            design: Fingerprint(0xAB),
            config: Fingerprint(0xCD),
            flow: flow.to_string(),
        }
    }

    fn qor(area: f64) -> Qor {
        Qor {
            area_um2: area,
            delay_ps: 10.0,
            gates: 3,
            and_nodes: 4,
            depth: 2,
        }
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("floweval-store-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The live segment new records land in: the last one on disk.
    fn live_file(base: &Path) -> PathBuf {
        let layout = Layout {
            base: base.to_path_buf(),
        };
        layout.segment(*layout.scan_segments().last().expect("a live segment"))
    }

    #[test]
    fn in_memory_store_roundtrip() {
        let mut store = QorStore::in_memory();
        assert!(store.is_empty());
        store.insert(key("balance"), qor(1.5)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&key("balance")), Some(qor(1.5)));
        assert_eq!(store.get(&key("rewrite")), None);
        assert_eq!(store.mode(), StoreMode::Ok);
        assert_eq!(store.probe(), StoreMode::Ok);
    }

    #[test]
    fn disk_store_persists_across_reopen() {
        let dir = temp_dir("reopen");
        let path = dir.join("qor.jsonl");
        {
            let mut store = QorStore::open(&path).expect("open");
            store.insert(key("balance; rewrite"), qor(2.25)).unwrap();
            store.insert(key("refactor"), qor(3.5)).unwrap();
            store.flush().expect("flush");
        }
        {
            let store = QorStore::open(&path).expect("reopen");
            assert_eq!(store.loaded, 2);
            assert_eq!(store.torn_tail + store.corrupt, 0);
            assert_eq!(store.get(&key("balance; rewrite")), Some(qor(2.25)));
            assert_eq!(store.get(&key("refactor")), Some(qor(3.5)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_store_is_segmented_and_checksummed() {
        let dir = temp_dir("fresh");
        let path = dir.join("qor.jsonl");
        let mut store = QorStore::open(&path).expect("open");
        assert_eq!(store.segments.len(), 1);
        store.insert(key("balance"), qor(1.0)).unwrap();
        store.flush().unwrap();
        drop(store);
        let layout = Layout { base: path.clone() };
        assert_eq!(layout.scan_segments(), [1], "a fresh store is one segment");
        let live = live_file(&path);
        assert_eq!(live, layout.segment(1));
        assert!(
            !path.exists(),
            "records live in a segment, not the base path"
        );
        let text = std::fs::read_to_string(&live).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with("v2 ")),
            "all lines framed: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends `line` to `path` behind the store's back.
    fn append_line(path: &Path, line: &str) {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("append");
        f.write_all(line.as_bytes()).expect("write");
    }

    /// A record as plain JSON, without the v2 frame and its checksum.
    fn plain_line(key: &StoreKey, area: f64) -> String {
        let record = QorRecord {
            design: key.design.to_string(),
            config: key.config.to_string(),
            flow: key.flow.clone(),
            qor: qor(area),
        };
        format!("{}\n", serde_json::to_string(&record).unwrap())
    }

    /// Opens and closes an empty store at `path`, returning its live segment.
    fn empty_store(path: &Path) -> PathBuf {
        drop(QorStore::open(path).expect("open"));
        live_file(path)
    }

    #[test]
    fn bare_plain_jsonl_base_file_is_refused() {
        let dir = temp_dir("bare");
        let path = dir.join("qor.jsonl");
        append_line(&path, &plain_line(&key("balance"), 1.0));
        append_line(&path, &plain_line(&key("rewrite"), 2.0));
        let before = std::fs::read(&path).unwrap();
        let err = QorStore::open(&path).expect_err("a pre-v2 store is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("before format v2"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
        let layout = Layout { base: path.clone() };
        assert!(layout.scan_segments().is_empty(), "no segment created");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_json_line_in_a_segment_is_corrupt() {
        // Records are framed: inside a segment a plain JSON line without
        // its checksum is damage, not a record.
        let dir = temp_dir("plain");
        let path = dir.join("qor.jsonl");
        {
            let mut store = QorStore::open(&path).expect("open");
            store.insert(key("balance"), qor(1.0)).unwrap();
        }
        append_line(&live_file(&path), &plain_line(&key("rewrite"), 2.0));
        let store = QorStore::open(&path).expect("reopen");
        assert_eq!(store.corrupt, 1, "an unchecked line is damage");
        assert_eq!(store.quarantined, 1);
        assert_eq!(store.loaded, 1);
        assert_eq!(store.get(&key("rewrite")), None);
        drop(store);
        let layout = Layout { base: path.clone() };
        let sidecar = std::fs::read_to_string(layout.quarantine()).unwrap();
        assert!(sidecar.contains("# corrupt"), "sidecar: {sidecar}");
        assert!(
            sidecar.contains("\"flow\":\"rewrite\""),
            "sidecar: {sidecar}"
        );
        let store = QorStore::open(&path).expect("clean reopen");
        assert_eq!(store.corrupt, 0, "healed on the previous open");
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_and_healed() {
        let dir = temp_dir("torn");
        let path = dir.join("qor.jsonl");
        {
            let mut store = QorStore::open(&path).expect("open");
            store.insert(key("balance"), qor(1.0)).unwrap();
            store.flush().expect("flush");
        }
        let live = live_file(&path);
        {
            let mut f = OpenOptions::new().append(true).open(&live).expect("append");
            write!(f, "v2 00000000 {{\"design\":\"torn").expect("write");
        }
        {
            let store = QorStore::open(&path).expect("reopen");
            assert_eq!(store.loaded, 1);
            assert_eq!(store.torn_tail, 1);
            assert_eq!(store.corrupt, 0);
            assert_eq!(store.torn_tail + store.corrupt, 1);
            assert_eq!(store.quarantined, 1);
            assert_eq!(store.get(&key("balance")), Some(qor(1.0)));
        }
        // The fragment was preserved in the sidecar and healed away: the
        // next open is clean.
        let quarantine = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".quarantine");
            PathBuf::from(os)
        };
        let sidecar = std::fs::read_to_string(&quarantine).unwrap();
        assert!(sidecar.contains("torn-tail"), "sidecar: {sidecar}");
        assert!(sidecar.contains("torn"), "sidecar: {sidecar}");
        let store = QorStore::open(&path).expect("clean reopen");
        assert_eq!(store.torn_tail + store.corrupt, 0);
        assert_eq!(store.loaded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_a_torn_line_survive() {
        let dir = temp_dir("notnl");
        let path = dir.join("qor.jsonl");
        {
            let mut store = QorStore::open(&path).expect("open");
            store.insert(key("balance"), qor(1.0)).unwrap();
        }
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(live_file(&path))
                .expect("append");
            write!(f, "{{\"design\":\"torn").expect("write");
        }
        {
            let mut store = QorStore::open(&path).expect("reopen");
            assert_eq!(store.torn_tail + store.corrupt, 1);
            store.insert(key("rewrite"), qor(2.0)).unwrap();
        }
        let store = QorStore::open(&path).expect("re-reopen");
        assert_eq!(store.loaded, 2);
        assert_eq!(
            store.torn_tail + store.corrupt,
            0,
            "healed on the previous open"
        );
        assert_eq!(store.get(&key("rewrite")), Some(qor(2.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_detected_and_healthy_records_survive() {
        let dir = temp_dir("corrupt");
        let path = dir.join("qor.jsonl");
        {
            let mut store = QorStore::open(&path).expect("open");
            for (i, flow) in ["balance", "rewrite", "refactor"].iter().enumerate() {
                store.insert(key(flow), qor(i as f64 + 1.0)).unwrap();
            }
            store.flush().unwrap();
        }
        // Flip one byte inside the middle record's JSON: the line still
        // looks structurally plausible, only the checksum can catch it.
        let live = live_file(&path);
        let mut data = std::fs::read(&live).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                data.iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let mid = line_starts[1];
        let flip = (mid..data.len()).find(|&i| data[i] == b'1').unwrap();
        data[flip] = b'7';
        std::fs::write(&live, &data).unwrap();

        let store = QorStore::open(&path).expect("reopen");
        assert_eq!(store.corrupt, 1, "checksum must catch the flip");
        assert_eq!(store.torn_tail, 0);
        assert_eq!(store.loaded, 2, "healthy remainder kept");
        assert_eq!(store.quarantined, 1);
        drop(store);
        // Healed: the corrupt line is physically gone, the rest intact.
        let store = QorStore::open(&path).expect("clean reopen");
        assert_eq!(store.corrupt, 0);
        assert_eq!(store.loaded, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_comment_lines_are_skipped_silently() {
        let dir = temp_dir("comment");
        let path = dir.join("qor.jsonl");
        {
            let mut store = QorStore::open(&path).expect("open");
            store.insert(key("balance"), qor(1.0)).unwrap();
        }
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(live_file(&path))
                .unwrap();
            writeln!(f, "# probe").unwrap();
        }
        let store = QorStore::open(&path).expect("reopen");
        assert_eq!(store.loaded, 1);
        assert_eq!(store.torn_tail + store.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicates_on_disk_resolve_last_write_wins() {
        let dir = temp_dir("dup");
        let path = dir.join("qor.jsonl");
        let live = empty_store(&path);
        for (flow, area) in [
            ("balance", 1.0),
            ("rewrite", 5.0),
            ("balance", 2.0),
            ("balance", 3.0),
        ] {
            append_line(&live, &record_line(&key(flow), &qor(area)).unwrap());
        }
        let store = QorStore::open(&path).expect("open");
        assert_eq!(store.len(), 2);
        assert_eq!(store.loaded, 4);
        assert_eq!(store.duplicates, 2);
        assert_eq!(
            store.get(&key("balance")),
            Some(qor(3.0)),
            "last write wins"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicates_and_torn_tail_recover_and_compaction_is_idempotent() {
        let dir = temp_dir("compact");
        let path = dir.join("qor.jsonl");
        let live = empty_store(&path);
        for area in [1.0, 2.0, 3.0] {
            append_line(&live, &record_line(&key("balance"), &qor(area)).unwrap());
        }
        append_line(&live, &record_line(&key("rewrite"), &qor(9.0)).unwrap());
        append_line(&live, "v2 00000000 {\"design\":\"torn");
        let mut store = QorStore::open(&path).expect("open");
        assert_eq!(store.len(), 2);
        assert_eq!(store.duplicates, 2);
        assert_eq!(store.torn_tail, 1);
        assert_eq!(store.quarantined, 1);
        assert_eq!(store.get(&key("balance")), Some(qor(3.0)));

        // Appends after the recovery land in the healed live segment.
        store.insert(key("refactor"), qor(7.0)).unwrap();
        drop(store);

        let mut store = QorStore::open(&path).expect("reopen");
        assert_eq!(store.len(), 3);
        assert_eq!(store.duplicates, 2, "open keeps what is on disk");
        assert_eq!(store.torn_tail + store.corrupt, 0);
        assert_eq!(store.get(&key("balance")), Some(qor(3.0)));
        assert_eq!(store.get(&key("refactor")), Some(qor(7.0)));
        // Compaction writes one line per key.  Stable order: compacting
        // twice produces identical segment bytes (the segment id advances;
        // the contents must not).
        let report = store.compact().expect("compact");
        assert_eq!(report.duplicates_dropped, 2);
        let bytes_first = std::fs::read(live_file(&path)).unwrap();
        assert_eq!(String::from_utf8_lossy(&bytes_first).lines().count(), 3);
        store.compact().expect("recompact");
        drop(store);
        let bytes_second = std::fs::read(live_file(&path)).unwrap();
        assert_eq!(bytes_first, bytes_second);
        let store = QorStore::open(&path).expect("reopen compacted");
        assert_eq!(store.duplicates, 0);
        assert_eq!(store.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_queue_is_bounded() {
        let dir = temp_dir("parked-cap");
        let path = dir.join("qor.jsonl");
        let mut store = QorStore::open(&path).expect("open");
        // A read-only handle on the live segment: every append fails.
        store.writer = Some(File::open(live_file(&path)).unwrap());
        let failed = (0..PARKED_CAP + 6)
            .filter(|i| {
                store
                    .insert(key(&format!("flow-{i}")), qor(*i as f64))
                    .is_err()
            })
            .count();
        assert_eq!(
            failed, DEGRADED_AFTER as usize,
            "degraded inserts park silently"
        );
        assert_eq!(store.mode(), StoreMode::Degraded);
        assert_eq!(store.parked.len(), PARKED_CAP);
        assert_eq!(store.parked_dropped, 6);
        assert_eq!(store.len(), PARKED_CAP + 6, "the index never drops records");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_loses_nothing() {
        let dir = temp_dir("rotate");
        let path = dir.join("qor.jsonl");
        let options = StoreOptions {
            segment_max_bytes: 256,
        };
        let n = 40;
        {
            let mut store = QorStore::open_with(&path, options).expect("open");
            for i in 0..n {
                store
                    .insert(key(&format!("flow-{i}")), qor(i as f64))
                    .unwrap();
            }
            assert!(store.segments.len() > 1, "rotation must have happened");
            store.flush().unwrap();
        }
        let store = QorStore::open_with(&path, options).expect("reopen");
        assert_eq!(store.len(), n);
        assert_eq!(store.torn_tail + store.corrupt, 0);
        assert!(store.segments.len() > 1);
        for i in 0..n {
            assert_eq!(store.get(&key(&format!("flow-{i}"))), Some(qor(i as f64)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_collapses_segments_to_one() {
        let dir = temp_dir("collapse");
        let path = dir.join("qor.jsonl");
        let options = StoreOptions {
            segment_max_bytes: 256,
        };
        let mut store = QorStore::open_with(&path, options).expect("open");
        for i in 0..40 {
            store
                .insert(key(&format!("flow-{i}")), qor(i as f64))
                .unwrap();
        }
        let before = store.segments.len();
        assert!(before > 1);
        store.compact().expect("compact");
        assert_eq!(store.segments.len(), 1);
        drop(store);
        let store = QorStore::open_with(&path, options).expect("reopen");
        assert_eq!(store.len(), 40);
        // Superseded segment files were retired from the directory.
        let layout = Layout { base: path.clone() };
        assert_eq!(layout.scan_segments().len(), 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_compact_is_a_no_op() {
        let mut store = QorStore::in_memory();
        store.insert(key("balance"), qor(1.0)).unwrap();
        let report = store.compact().expect("compact");
        assert_eq!(report.records, 1);
        assert_eq!(report.bytes_before, 0);
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let mut store = QorStore::in_memory();
        store.insert(key("balance"), qor(1.0)).unwrap();
        store.insert(key("balance"), qor(9.0)).unwrap();
        assert_eq!(
            store.get(&key("balance")),
            Some(qor(1.0)),
            "first write wins"
        );
        assert_eq!(store.len(), 1);
    }
}
