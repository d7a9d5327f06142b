//! Disk storage for the frontier engine: where a spilled sweep's
//! checkpoint snapshots live, and how a sweep survives its own process.
//!
//! An in-memory sweep has no store, and evicts nothing. A sweep run with
//! [`super::Explorer::spill_to`] owns one [`SpillStore`], which
//! serializes every checkpoint snapshot (via the versioned codec in
//! [`crate::model_world::codec`]) into an append-only **segment file**
//! inside a sweep directory, hands the engine a [`DiskRef`] record
//! locator — the anchor evicted nodes are rebuilt from, and then the
//! only owner of their state — and at every layer barrier persists the
//! frontier, the visited-set delta, the violations, and an atomically
//! renamed `MANIFEST`, making the sweep **crash-resumable**
//! ([`open_sweep`]).
//!
//! # Sweep directory layout
//!
//! | file | contents |
//! |---|---|
//! | `segments.bin` | checkpoint records: `[payload_len: u64 LE][payload]`, where `payload` is [`Snapshot::encode`] bytes |
//! | `visited.bin` | visited fingerprints, 8 bytes LE each, appended per layer barrier |
//! | `state-<L>.bin` (or `state-final.bin`) | violations + the layer-`L` frontier jobs, each a node (its choice path and disk anchor) plus its queued choices or a tail tag (binary, see `encode_state`) |
//! | `MANIFEST` | text `key=value` lines: configuration, running statistics, file lengths and checksums, status, and last its own checksum |
//!
//! # Resume soundness
//!
//! The manifest is written with a write-to-temporary + `rename` at each
//! layer barrier, after `fsync`ing the data files it points into — so a
//! kill at *any* instant leaves a manifest describing a consistent
//! prefix of the sweep. The sweep directory itself is synced after the
//! data files are created and after each rename, before the previous
//! state file is removed, so an OS crash cannot leave a manifest naming
//! a state file that is gone. Appends past the recorded `segments_len` /
//! `visited_len` are torn-tail garbage from the interrupted layer;
//! [`open_sweep`] truncates both files back to the manifest's lengths
//! before continuing, which restores the exact byte state the barrier
//! saw (so even the segment file's future contents are reproduced).
//! The interrupted layer is then re-executed from its persisted job
//! list — idempotent, because expansion is deterministic and every
//! effect of a layer (visited insertions, statistics, violations) is
//! only committed at the *next* barrier.
//!
//! A frontier record is a node's choice path plus its disk anchor — an
//! offset and a length in the segment file — and nothing else: the
//! node's job rehydrates its snapshot from the anchor, and the snapshot
//! holds everything the engine reads — the alive set, footprints,
//! clocks, and the adversary state. Under
//! every policy the explorer accepts ([`Crashes::None`] /
//! [`Crashes::AtOwnStep`] / [`Crashes::UpTo`]) that state is which
//! processes have crashed, so a resumed crash-count sweep re-branches
//! with exactly the budget its crashed flags leave. [`Crashes::Random`]
//! carries RNG stream position; the explorer rejects it before any
//! sweep starts.
//!
//! The manifest commits to the files it points at: `state_fnv` is the
//! FNV-1a of the state file, `segments_fnv` the FNV-1a of the committed
//! segment file prefix, and `visited_fnv` folds every committed visited
//! fingerprint in file order, so [`open_sweep`] rejects a changed byte
//! in any of them — a flipped choice that stays enabled, or a segment
//! record's step count that still decodes, included — as `InvalidData`,
//! and likewise a `segments_len` past the end of the segment file. It
//! also rejects an anchor deeper than its node's path, and a job whose
//! queued choices are empty or not strictly increasing. The manifest's
//! last line, `manifest_fnv`, is the FNV-1a of every byte before it, so
//! an edited value the parser would accept is `InvalidData` too.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::fingerprint::mix;
use crate::model_world::codec::{ByteReader, ByteWriter, CodecError, CODEC_VERSION};
use crate::model_world::Snapshot;
use crate::sched::Crashes;

use super::frontier::{Anchor, Job, Node};
use super::report::{ExploreReport, ExploreStats, Violation};
use super::{ExploreLimits, Explorer, Reduction};

/// Magic of the binary frontier/violations state file.
const STATE_MAGIC: &[u8; 4] = b"MPSW";
/// Version of the `MANIFEST` key set. v3 added the crash-count
/// adversary (the `up_to:<f>` crash policy encoding and the
/// `crash_branches` statistic); v4 added the TSO weak-memory mode (the
/// `tso` configuration key, the `flush_branches` statistic, and — in
/// the frontier state file — per-node store-buffer flush-head footprints
/// plus the `Flush` incoming-action tag). v5 folded the commuting-reads
/// rule into DPOR: `dpor_skips` now counts every skip made before
/// execution, and the separate read-read reduction flag, its counter and
/// the per-mode summary flags are gone. v6 shrank the frontier record to
/// the choice path plus the disk anchor: alive sets, incoming actions,
/// footprints, clocks and crash counts are read from the rehydrated
/// snapshot instead. An older manifest would resume with a different
/// reduction set, misread counters or misparse its state file, so older
/// manifests are rejected whole rather than partially decoded. v7 added
/// `state_fnv` and `visited_fnv`, checksums of the state file and of the
/// committed visited set. v8 dropped the `threads` key, since every sweep
/// runs on the caller's thread, and added `manifest_fnv`, a checksum of
/// the manifest itself. v9 added `segments_fnv`, a checksum of the
/// committed segment file. v10 added the `body_runs` statistic. v11
/// moved the state fingerprints to the word-wise
/// [`crate::fingerprint::StateHasher`]: an older sweep's `visited.bin`
/// and `visited_fnv` hold fingerprints that no current sweep makes. v12
/// dropped the `view_summaries` key, since every sweep folds declared
/// view summaries, and came with snapshot codec v4.
const MANIFEST_VERSION: u64 = 12;

/// Locator of one checkpoint record in the segment file: the payload's
/// offset and length, read back through [`SpillStore::read`].
#[derive(Clone, Copy)]
pub(super) struct DiskRef {
    offset: u64,
    len: u64,
}

fn bad_data<E>(e: E) -> io::Error
where
    E: Into<Box<dyn std::error::Error + Send + Sync>>,
{
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Everything one layer barrier persists, borrowed from the engine.
pub(super) struct SweepCheckpoint<'a> {
    pub(super) ex: &'a Explorer,
    pub(super) layer: u64,
    pub(super) jobs: &'a [Job],
    pub(super) stats: &'a ExploreStats,
    pub(super) violations: &'a [Violation],
    /// Fingerprints newly committed to the visited set since the last
    /// barrier, in canonical order.
    pub(super) visited_delta: &'a [u64],
    pub(super) queued: u64,
    pub(super) complete: bool,
    /// `true` for the final barrier of a finished sweep.
    pub(super) done: bool,
}

/// The disk-spilling store: checkpoint snapshots go to the sweep
/// directory's segment file, and every layer barrier persists enough to
/// resume the sweep after a kill ([`open_sweep`]).
pub(super) struct SpillStore {
    dir: PathBuf,
    /// Segment file, opened read + append: the engine appends records
    /// and reads them back at recorded offsets.
    segments: File,
    segments_len: u64,
    /// Running FNV-1a of every record appended to the segment file.
    segments_fnv: Fnv1a,
    visited: File,
    visited_len: u64,
    /// [`visited_checksum`] of the committed visited set.
    visited_fnv: u64,
    /// Previous barrier's state file, deleted after the manifest moves
    /// on to the next one.
    last_state: Option<String>,
}

impl SpillStore {
    /// Creates (or wipes) a sweep directory for a fresh sweep.
    pub(super) fn create(dir: &Path) -> io::Result<SpillStore> {
        fs::create_dir_all(dir)?;
        // An earlier sweep's manifest, its torn manifest rename and its
        // state files must not survive into this sweep: a stale manifest
        // would describe the window before the first barrier, and a
        // stale state file would outlive the sweep.
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|name| name.to_str()).unwrap_or_default();
            let stale = name == "MANIFEST"
                || name == "MANIFEST.tmp"
                || (name.starts_with("state-") && name.ends_with(".bin"));
            if stale {
                fs::remove_file(&path)?;
            }
        }
        let segments = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join("segments.bin"))?;
        segments.set_len(0)?;
        let visited = OpenOptions::new().append(true).create(true).open(dir.join("visited.bin"))?;
        visited.set_len(0)?;
        sync_dir(dir)?;
        Ok(SpillStore {
            dir: dir.to_path_buf(),
            segments,
            segments_len: 0,
            segments_fnv: Fnv1a::new(),
            visited,
            visited_len: 0,
            visited_fnv: Fnv1a::OFFSET,
            last_state: None,
        })
    }

    /// Appends one checkpoint snapshot to the segment file, charging
    /// the spill counters, and returns its record locator.
    pub(super) fn put(&mut self, snap: &Snapshot, stats: &mut ExploreStats) -> io::Result<DiskRef> {
        let payload = snap.encode().map_err(bad_data)?;
        let len = payload.len() as u64;
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&payload);
        self.segments.write_all(&record)?;
        self.segments_fnv.write(&record);
        let offset = self.segments_len + 8;
        self.segments_len += record.len() as u64;
        stats.spilled += 1;
        stats.spill_bytes += len;
        Ok(DiskRef { offset, len })
    }

    /// Reads back and decodes the checkpoint snapshot at `disk`. A
    /// locator that reaches past the end of the segment file (a corrupt
    /// frontier record) is an `InvalidData` error before it sizes any
    /// buffer.
    pub(super) fn read(&self, disk: &DiskRef) -> io::Result<Snapshot> {
        if !matches!(disk.offset.checked_add(disk.len), Some(end) if end <= self.segments_len) {
            return Err(bad_data(format!(
                "checkpoint record at offset {} of length {} overruns the {}-byte segment file",
                disk.offset, disk.len, self.segments_len
            )));
        }
        let mut buf = vec![0u8; usize::try_from(disk.len).map_err(bad_data)?];
        let mut file = &self.segments;
        file.seek(SeekFrom::Start(disk.offset))?;
        file.read_exact(&mut buf)?;
        Snapshot::decode(&buf).map_err(bad_data)
    }

    /// Persists one layer barrier — called at every layer boundary, and
    /// once more with `done = true` when the sweep ends — with
    /// everything a resumption needs.
    pub(super) fn barrier(&mut self, ck: &SweepCheckpoint<'_>) -> io::Result<()> {
        if !ck.visited_delta.is_empty() {
            let mut buf = Vec::with_capacity(ck.visited_delta.len() * 8);
            for &fp in ck.visited_delta {
                buf.extend_from_slice(&fp.to_le_bytes());
            }
            self.visited.write_all(&buf)?;
            self.visited_len += buf.len() as u64;
            self.visited_fnv = visited_checksum(self.visited_fnv, ck.visited_delta);
        }
        // Data first, durably; only then the manifest that points into it.
        self.segments.sync_data()?;
        self.visited.sync_data()?;
        let state_name =
            if ck.done { "state-final.bin".to_string() } else { format!("state-{}.bin", ck.layer) };
        let state = encode_state(ck).map_err(bad_data)?;
        write_sync(&self.dir.join(&state_name), &state)?;
        let manifest = render_manifest(ck, self, &state_name, fnv1a(&state))?;
        write_sync(&self.dir.join("MANIFEST.tmp"), manifest.as_bytes())?;
        fs::rename(self.dir.join("MANIFEST.tmp"), self.dir.join("MANIFEST"))?;
        // The rename must be durable before the state file it replaces
        // is unlinked: POSIX does not order the two across an OS crash.
        sync_dir(&self.dir)?;
        if let Some(old) = self.last_state.replace(state_name.clone()) {
            if old != state_name {
                let _ = fs::remove_file(self.dir.join(old));
            }
        }
        Ok(())
    }
}

fn write_sync(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Makes the creates, renames and unlinks in `dir` durable: a directory
/// entry survives an OS crash only once its parent directory is synced.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Byte-wise FNV-1a (64-bit), the store's file checksums. It is a
/// running hash of a byte stream that gives the same word however the
/// stream is chunked, which `segments_fnv` needs: resume re-hashes the
/// segment file in other chunks than the appends that built it. The
/// word-wise state hasher ([`crate::fingerprint::StateHasher`]) tags
/// partial words, so it would not.
struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a offset basis (64-bit).
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime (64-bit).
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Fnv1a::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv1a::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes`: the manifest's `state_fnv` of the state file, and
/// its `manifest_fnv` of every manifest byte before that line.
pub(super) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a of the first `len` bytes of `file`, read from its start: the
/// running hash a [`SpillStore`] held after appending them.
fn fnv1a_prefix(file: &File, len: u64) -> io::Result<Fnv1a> {
    let mut h = Fnv1a::new();
    let mut prefix = file.take(len);
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match prefix.read(&mut buf)? {
            0 => return Ok(h),
            k => h.write(&buf[..k]),
        }
    }
}

/// The manifest's `visited_fnv`: [`mix`] folded over the visited
/// fingerprints in file order, from the FNV-1a offset basis for the
/// empty set; `acc` extended by `fps`.
fn visited_checksum(acc: u64, fps: &[u64]) -> u64 {
    fps.iter().fold(acc, |acc, &fp| mix(acc, fp))
}

// --- frontier state file ---------------------------------------------------

/// Serializes violations + the layer's job list: each job as its node
/// record, then a tail tag or its queued choices.
fn encode_state(ck: &SweepCheckpoint<'_>) -> Result<Vec<u8>, CodecError> {
    let mut w = ByteWriter::new();
    w.put_bytes(STATE_MAGIC.as_slice());
    w.put_u16(CODEC_VERSION);
    w.put_usize(ck.violations.len());
    for v in ck.violations {
        w.put_usize(v.choices.len());
        for &c in &v.choices {
            w.put_usize(c);
        }
        w.put_usize(v.message.len());
        w.put_bytes(v.message.as_bytes());
    }
    w.put_usize(ck.jobs.len());
    for job in ck.jobs {
        match job {
            Job::Tail { node } => {
                encode_node(&mut w, node)?;
                w.put_u8(0);
            }
            Job::Expand { node, choices } => {
                encode_node(&mut w, node)?;
                w.put_u8(1);
                w.put_usize(choices.len());
                for &c in choices {
                    w.put_usize(c);
                }
            }
        }
    }
    Ok(w.into_vec())
}

/// One frontier node as its choice path and disk anchor — the evicted
/// form, since a resumed node rebuilds its snapshot from the anchor
/// anyway.
fn encode_node(w: &mut ByteWriter, node: &Node) -> Result<(), CodecError> {
    // A spilling sweep anchors every node (depth 0 is a checkpoint
    // layer) to a disk record, so anything else here is an engine bug.
    let Some(Anchor { depth, disk }) = &node.anchor else {
        return Err(CodecError::UnsupportedValue { context: "frontier node anchor" });
    };
    w.put_usize(node.path.len());
    for &c in &node.path {
        w.put_usize(c);
    }
    w.put_usize(*depth);
    w.put_u64(disk.offset);
    w.put_u64(disk.len);
    Ok(())
}

fn decode_node(r: &mut ByteReader<'_>) -> Result<Node, CodecError> {
    let path = (0..r.usize()?).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
    let depth = r.usize()?;
    let disk = DiskRef { offset: r.u64()?, len: r.u64()? };
    Ok(Node { snap: None, path, anchor: Some(Anchor { depth, disk }) })
}

fn decode_state(bytes: &[u8]) -> Result<(Vec<Violation>, Vec<Job>), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(4)? != STATE_MAGIC.as_slice() {
        return Err(CodecError::BadMagic);
    }
    match r.u16()? {
        CODEC_VERSION => {}
        v => return Err(CodecError::UnsupportedVersion(v)),
    }
    let mut violations = Vec::new();
    for _ in 0..r.usize()? {
        let choices = (0..r.usize()?).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
        let msg_len = r.usize()?;
        let message = String::from_utf8(r.bytes(msg_len)?.to_vec())
            .map_err(|_| CodecError::BadTag { what: "violation message utf-8", tag: 0 })?;
        violations.push(Violation { choices, message });
    }
    let mut jobs = Vec::new();
    for _ in 0..r.usize()? {
        let node = decode_node(&mut r)?;
        match r.u8()? {
            0 => jobs.push(Job::Tail { node }),
            1 => {
                let choices = (0..r.usize()?).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
                // The engine queues each node's choices once, ascending.
                if choices.is_empty() || choices.windows(2).any(|w| w[0] >= w[1]) {
                    let what = "job choice list (empty or not strictly increasing)";
                    return Err(CodecError::BadTag { what, tag: choices.len() as u64 });
                }
                jobs.push(Job::Expand { node, choices });
            }
            tag => return Err(CodecError::BadTag { what: "job kind", tag: u64::from(tag) }),
        }
    }
    r.finish()?;
    Ok((violations, jobs))
}

// --- manifest --------------------------------------------------------------

fn encode_crashes(c: &Crashes) -> io::Result<String> {
    match c {
        Crashes::None => Ok("none".to_string()),
        Crashes::AtOwnStep(plan) => {
            let body = plan.iter().map(|(p, s)| format!("{p}@{s}")).collect::<Vec<_>>().join(",");
            Ok(format!("at_own_step:{body}"))
        }
        Crashes::UpTo(f) => Ok(format!("up_to:{f}")),
        Crashes::Random { .. } => Err(bad_data(
            "Crashes::Random carries RNG stream state and cannot be persisted to a manifest",
        )),
    }
}

fn decode_crashes(s: &str) -> io::Result<Crashes> {
    if s == "none" {
        return Ok(Crashes::None);
    }
    if let Some(f) = s.strip_prefix("up_to:") {
        return Ok(Crashes::UpTo(f.parse().map_err(bad_data)?));
    }
    let Some(rest) = s.strip_prefix("at_own_step:") else {
        return Err(bad_data(format!("unknown crash policy in manifest: {s:?}")));
    };
    if rest.is_empty() {
        return Ok(Crashes::AtOwnStep(Vec::new()));
    }
    let mut plan = Vec::new();
    for part in rest.split(',') {
        let (p, step) = part
            .split_once('@')
            .ok_or_else(|| bad_data(format!("malformed crash plan entry: {part:?}")))?;
        let p = p.parse().map_err(bad_data)?;
        let step = step.parse().map_err(bad_data)?;
        plan.push((p, step));
    }
    Ok(Crashes::AtOwnStep(plan))
}

fn render_manifest(
    ck: &SweepCheckpoint<'_>,
    store: &SpillStore,
    state_file: &str,
    state_fnv: u64,
) -> io::Result<String> {
    use std::fmt::Write as _;
    let ex = ck.ex;
    let stats = ck.stats;
    let mut out = String::new();
    let mut kv = |k: &str, v: String| {
        let _ = writeln!(out, "{k}={v}");
    };
    kv("manifest_version", MANIFEST_VERSION.to_string());
    kv("codec_version", u64::from(CODEC_VERSION).to_string());
    kv("status", if ck.done { "done" } else { "pending" }.to_string());
    kv("fixture", ex.fixture.replace(['\n', '\r'], " "));
    kv("layer", ck.layer.to_string());
    kv("n", ex.n.to_string());
    kv("collect_all", ex.collect_all.to_string());
    kv("max_expansions", ex.limits.max_expansions.to_string());
    kv("max_steps", ex.limits.max_steps.to_string());
    kv("max_depth", (ex.limits.max_depth as u64).to_string());
    kv("prune_visited", ex.reduction.prune_visited.to_string());
    kv("dpor", ex.reduction.dpor.to_string());
    kv("quotient_obs", ex.reduction.quotient_obs.to_string());
    kv("symmetry", ex.reduction.symmetry.to_string());
    // The Symmetry spec itself is code (fn pointers) and cannot be
    // persisted; the manifest records its presence so a resume can
    // demand the original fixture re-supply it
    // (`Explorer::resume_sweep_with_symmetry`).
    kv("symm_spec", ex.symmetry.is_some().to_string());
    kv("resident_ceiling", (ex.resident_ceiling as u64).to_string());
    kv("checkpoint_every", (ex.checkpoint_every as u64).to_string());
    kv("crashes", encode_crashes(&ex.crashes)?);
    kv("tso", ex.tso.to_string());
    kv("segments_len", store.segments_len.to_string());
    kv("segments_fnv", store.segments_fnv.finish().to_string());
    kv("visited_len", store.visited_len.to_string());
    kv("visited_fnv", store.visited_fnv.to_string());
    kv("state_file", state_file.to_string());
    kv("state_fnv", state_fnv.to_string());
    kv("queued", ck.queued.to_string());
    kv("complete", ck.complete.to_string());
    kv("runs", stats.runs.to_string());
    kv("expansions", stats.expansions.to_string());
    kv("states_visited", stats.states_visited.to_string());
    kv("states_pruned", stats.states_pruned.to_string());
    kv("dpor_skips", stats.dpor_skips.to_string());
    kv("quotient_hits", stats.quotient_hits.to_string());
    kv("symm_hits", stats.symm_hits.to_string());
    kv("symm_enabled", stats.symm_enabled.to_string());
    kv("crash_branches", stats.crash_branches.to_string());
    kv("flush_branches", stats.flush_branches.to_string());
    kv("evicted", stats.evicted.to_string());
    kv("max_rehydration_replay", stats.max_rehydration_replay.to_string());
    kv("spilled", stats.spilled.to_string());
    kv("spill_bytes", stats.spill_bytes.to_string());
    kv("store_reads", stats.store_reads.to_string());
    kv("body_runs", stats.body_runs.to_string());
    kv("max_depth_seen", (stats.max_depth as u64).to_string());
    kv("depth_limited_runs", stats.depth_limited_runs.to_string());
    kv(
        "branching",
        stats.branching_histogram.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
    );
    let manifest_fnv = fnv1a(out.as_bytes());
    let _ = writeln!(out, "manifest_fnv={manifest_fnv}");
    Ok(out)
}

/// Checks the manifest's last line, `manifest_fnv=`, against the FNV-1a
/// of every byte before it, so that an edited or damaged value — which
/// its parser would accept — is `InvalidData`.
fn check_manifest_fnv(text: &str) -> io::Result<()> {
    let last = text.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1);
    let (body, last) = text.split_at(last);
    match last.trim_end().strip_prefix("manifest_fnv=") {
        Some(v) if v.parse() == Ok(fnv1a(body.as_bytes())) => Ok(()),
        Some(_) => Err(bad_data("MANIFEST does not match its manifest_fnv")),
        None => Err(bad_data("MANIFEST does not end with a manifest_fnv line")),
    }
}

struct Manifest<'a> {
    map: HashMap<&'a str, &'a str>,
}

impl<'a> Manifest<'a> {
    fn parse(text: &'a str) -> io::Result<Self> {
        let mut map = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| bad_data(format!("malformed manifest line: {line:?}")))?;
            map.insert(k, v);
        }
        Ok(Manifest { map })
    }

    fn field(&self, key: &str) -> io::Result<&'a str> {
        self.map
            .get(key)
            .copied()
            .ok_or_else(|| bad_data(format!("manifest is missing the {key:?} field")))
    }

    fn u64(&self, key: &str) -> io::Result<u64> {
        self.field(key)?
            .parse()
            .map_err(|_| bad_data(format!("manifest field {key:?} is not a u64")))
    }

    fn usize(&self, key: &str) -> io::Result<usize> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| bad_data(format!("manifest field {key:?} overflows usize")))
    }

    fn bool(&self, key: &str) -> io::Result<bool> {
        self.field(key)?
            .parse()
            .map_err(|_| bad_data(format!("manifest field {key:?} is not a bool")))
    }
}

// --- resumption ------------------------------------------------------------

/// What [`open_sweep`] found in a sweep directory.
pub(super) enum OpenedSweep {
    /// The sweep finished; its final report, reconstructed from the
    /// manifest.
    Done(ExploreReport),
    /// The sweep was interrupted mid-layer; everything the engine needs
    /// to continue it.
    Pending(Box<PendingSweep>),
}

/// A resumable sweep: the reconstructed configuration, the persisted
/// engine state, and the reopened store.
pub(super) struct PendingSweep {
    pub(super) ex: Explorer,
    pub(super) store: SpillStore,
    pub(super) jobs: Vec<Job>,
    pub(super) stats: ExploreStats,
    pub(super) violations: Vec<Violation>,
    pub(super) visited: Vec<u64>,
    pub(super) queued: u64,
    pub(super) complete: bool,
    pub(super) layer: u64,
    /// The original sweep was started with a pid-symmetry spec
    /// (`Explorer::symmetry`) — the resumer must re-supply one.
    pub(super) symm_spec: bool,
}

/// Opens a sweep directory written by the spill store: returns the final
/// report if the sweep finished, or the state needed to continue it —
/// with the segment and visited files truncated back to the manifest's
/// recorded lengths (dropping any torn tail the interrupted layer
/// appended past its last barrier).
pub(super) fn open_sweep(dir: &Path) -> io::Result<OpenedSweep> {
    let text = fs::read_to_string(dir.join("MANIFEST"))?;
    let m = Manifest::parse(&text)?;
    match m.u64("manifest_version")? {
        MANIFEST_VERSION => {}
        v => return Err(bad_data(format!("unsupported manifest version {v}"))),
    }
    match m.u64("codec_version")? {
        v if v == u64::from(CODEC_VERSION) => {}
        v => return Err(bad_data(format!("unsupported snapshot codec version {v}"))),
    }
    check_manifest_fnv(&text)?;
    // A zero stride would divide by zero at the first admitted node.
    let checkpoint_every = match m.usize("checkpoint_every")? {
        0 => return Err(bad_data("manifest checkpoint_every is 0; the stride is at least 1")),
        k => k,
    };
    let ex = Explorer {
        n: m.usize("n")?,
        crashes: decode_crashes(m.field("crashes")?)?,
        tso: m.bool("tso")?,
        limits: ExploreLimits {
            max_expansions: m.u64("max_expansions")?,
            max_steps: m.u64("max_steps")?,
            max_depth: m.usize("max_depth")?,
        },
        reduction: Reduction {
            prune_visited: m.bool("prune_visited")?,
            dpor: m.bool("dpor")?,
            quotient_obs: m.bool("quotient_obs")?,
            symmetry: m.bool("symmetry")?,
        },
        collect_all: m.bool("collect_all")?,
        resident_ceiling: m.usize("resident_ceiling")?,
        checkpoint_every,
        spill_dir: Some(dir.to_path_buf()),
        halt_after_layers: None,
        fixture: m.field("fixture")?.to_string(),
        // Rebuilt without the (unserializable) spec; the resume entry
        // point injects the caller-supplied one after checking it
        // against `symm_spec` below.
        symmetry: None,
    };
    let branching = {
        let s = m.field("branching")?;
        if s.is_empty() {
            Vec::new()
        } else {
            s.split(',')
                .map(|v| v.parse().map_err(|_| bad_data("malformed branching histogram")))
                .collect::<io::Result<Vec<u64>>>()?
        }
    };
    let stats = ExploreStats {
        runs: m.u64("runs")?,
        expansions: m.u64("expansions")?,
        states_visited: m.u64("states_visited")?,
        states_pruned: m.u64("states_pruned")?,
        dpor_skips: m.u64("dpor_skips")?,
        quotient_hits: m.u64("quotient_hits")?,
        symm_hits: m.u64("symm_hits")?,
        symm_enabled: m.bool("symm_enabled")?,
        crash_branches: m.u64("crash_branches")?,
        flush_branches: m.u64("flush_branches")?,
        evicted: m.u64("evicted")?,
        max_rehydration_replay: m.u64("max_rehydration_replay")?,
        spilled: m.u64("spilled")?,
        spill_bytes: m.u64("spill_bytes")?,
        store_reads: m.u64("store_reads")?,
        body_runs: m.u64("body_runs")?,
        max_depth: m.usize("max_depth_seen")?,
        depth_limited_runs: m.u64("depth_limited_runs")?,
        branching_histogram: branching,
    };
    let complete = m.bool("complete")?;
    let segments_len = m.u64("segments_len")?;
    let visited_len = m.u64("visited_len")?;
    let state_name = m.field("state_file")?;
    if state_name.contains(['/', '\\']) {
        return Err(bad_data(format!("manifest state_file escapes the sweep dir: {state_name:?}")));
    }
    let state_bytes = fs::read(dir.join(state_name))?;
    if fnv1a(&state_bytes) != m.u64("state_fnv")? {
        return Err(bad_data(format!("{state_name} does not match the manifest's state_fnv")));
    }
    let (violations, jobs) = decode_state(&state_bytes).map_err(bad_data)?;
    // Rehydration replays `path[depth..]`, so an anchor deeper than its
    // own node's path is corrupt.
    for job in &jobs {
        let (Job::Expand { node, .. } | Job::Tail { node }) = job;
        if let Some(anchor) = node.anchor.as_ref().filter(|a| a.depth > node.path.len()) {
            return Err(bad_data(format!(
                "frontier record anchored at depth {} beyond its {}-choice path",
                anchor.depth,
                node.path.len()
            )));
        }
    }
    if m.field("status")? == "done" {
        return Ok(OpenedSweep::Done(ExploreReport {
            complete: complete && violations.is_empty(),
            stats,
            violations,
        }));
    }
    // Torn-tail discipline: drop whatever the interrupted layer appended
    // past the last barrier, restoring the exact byte state it saw.
    let segments = OpenOptions::new().read(true).append(true).open(dir.join("segments.bin"))?;
    if segments.metadata()?.len() < segments_len {
        return Err(bad_data("segments.bin is shorter than the manifest records"));
    }
    let segments_fnv = fnv1a_prefix(&segments, segments_len)?;
    if segments_fnv.finish() != m.u64("segments_fnv")? {
        return Err(bad_data("segments.bin does not match the manifest's segments_fnv"));
    }
    segments.set_len(segments_len)?;
    let visited_bytes = fs::read(dir.join("visited.bin"))?;
    let visited_len_usize = usize::try_from(visited_len).map_err(bad_data)?;
    if visited_bytes.len() < visited_len_usize {
        return Err(bad_data("visited.bin is shorter than the manifest records"));
    }
    // The barrier only ever records whole 8-byte fingerprints, so a
    // misaligned length means the manifest is corrupt — refuse it
    // rather than let `chunks_exact` silently drop the trailing bytes
    // (losing visited states would resurrect pruned subtrees on
    // resume).
    if visited_len_usize % 8 != 0 {
        return Err(bad_data(format!(
            "manifest visited_len {visited_len} is not a multiple of the 8-byte \
             fingerprint size"
        )));
    }
    let visited: Vec<u64> = visited_bytes[..visited_len_usize]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let visited_fnv = m.u64("visited_fnv")?;
    if visited_checksum(Fnv1a::OFFSET, &visited) != visited_fnv {
        return Err(bad_data("visited.bin does not match the manifest's visited_fnv"));
    }
    let visited_file = OpenOptions::new().append(true).open(dir.join("visited.bin"))?;
    visited_file.set_len(visited_len)?;
    let store = SpillStore {
        dir: dir.to_path_buf(),
        segments,
        segments_len,
        segments_fnv,
        visited: visited_file,
        visited_len,
        visited_fnv,
        last_state: Some(state_name.to_string()),
    };
    Ok(OpenedSweep::Pending(Box::new(PendingSweep {
        ex,
        store,
        jobs,
        stats,
        violations,
        visited,
        queued: m.u64("queued")?,
        complete,
        layer: m.u64("layer")?,
        symm_spec: m.bool("symm_spec")?,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frontier record's locator comes from disk, so a corrupt one must
    /// end in an `InvalidData` error before it sizes a read buffer: a
    /// record reaching past the end of the segment file, a record that
    /// starts inside it but runs over, and an offset that overflows.
    #[test]
    fn over_long_disk_ref_is_an_error() {
        let dir = std::env::temp_dir().join(format!("mpcn-over-long-ref-{}", std::process::id()));
        let mut store = SpillStore::create(&dir).expect("create sweep directory");
        store.segments.write_all(&[0u8; 64]).expect("write segment file");
        store.segments_len = 64;
        for (offset, len) in [(0, 1u64 << 36), (60, 8), (u64::MAX, 2)] {
            let Err(e) = store.read(&DiskRef { offset, len }) else {
                panic!("offset {offset} len {len} must not decode")
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "offset {offset} len {len}: {e}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c — pins the algorithm so a
        // refactor cannot silently change every recorded checksum.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
