//! Pluggable snapshot storage for the frontier engine: where checkpoint
//! snapshots live, and how a sweep survives its own process.
//!
//! The engine talks to storage through exactly one seam,
//! [`SnapshotStore`]:
//!
//! * [`MemStore`] (the default) keeps checkpoint snapshots as shared
//!   `Arc`s — byte-for-byte the classic in-memory engine.
//! * [`SpillStore`] serializes every checkpoint snapshot (via the
//!   versioned codec in [`crate::model_world::codec`]) into an
//!   append-only **segment file** inside a sweep directory, hands the
//!   engine a [`SnapRef::Disk`] record locator, and — at every layer
//!   barrier — persists the frontier, the visited-set delta, the
//!   violations, and an atomically renamed `MANIFEST`, making the sweep
//!   **crash-resumable** ([`open_sweep`]).
//!
//! # Sweep directory layout
//!
//! | file | contents |
//! |---|---|
//! | `segments.bin` | checkpoint records: `[payload_len: u64 LE][payload]`, where `payload` is [`Snapshot::encode`] bytes |
//! | `visited.bin` | visited fingerprints, 8 bytes LE each, appended per layer barrier |
//! | `state-<L>.bin` (or `state-final.bin`) | violations + the layer-`L` frontier jobs (binary, see `encode_state`) |
//! | `MANIFEST` | text `key=value` lines: configuration, running statistics, file lengths, status |
//!
//! # Resume soundness
//!
//! The manifest is written with a write-to-temporary + `rename` at each
//! layer barrier, after `fsync`ing the data files it points into — so a
//! kill at *any* instant leaves a manifest describing a consistent
//! prefix of the sweep. Appends past the recorded `segments_len` /
//! `visited_len` are torn-tail garbage from the interrupted layer;
//! [`open_sweep`] truncates both files back to the manifest's lengths
//! before continuing, which restores the exact byte state the barrier
//! saw (so even the segment file's future contents are reproduced).
//! The interrupted layer is then re-executed from its persisted job
//! list — idempotent, because expansion is deterministic and every
//! merge effect (visited insertions, statistics, violations) was only
//! committed at the *next* barrier.
//!
//! Adversary state is reconstructed, not serialized: frontier records
//! carry each node's crash **count**, and [`CrashState::restore`]
//! rebuilds the exact state for the replayable policies
//! ([`Crashes::None`] / [`Crashes::AtOwnStep`] / [`Crashes::UpTo`] —
//! for the crash-count adversary the count *is* the whole state, so a
//! resumed sweep re-branches with exactly the remaining budget).
//! [`Crashes::Random`] carries RNG stream position; the explorer
//! rejects it before any sweep starts.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::model_world::codec::{
    decode_footprint, encode_footprint, ByteReader, ByteWriter, CodecError, CODEC_VERSION,
};
use crate::model_world::Snapshot;
use crate::sched::{CrashState, Crashes};

use super::frontier::{Action, Anchor, Job, Node, Store};
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
/// the per-mode summary flags are gone. An older manifest would resume
/// with a different reduction set or misread counters, so older
/// manifests are rejected whole rather than partially decoded.
const MANIFEST_VERSION: u64 = 5;

/// Where a stored checkpoint snapshot lives — what [`SnapshotStore::put`]
/// returns and a frontier anchor carries.
#[derive(Clone)]
pub(super) enum SnapRef {
    /// Resident in memory, shared by `Arc` (the in-memory store).
    Mem(Arc<Snapshot>),
    /// A record in the sweep directory's segment file.
    Disk(DiskRef),
}

/// Locator of one checkpoint record in the segment file. Reads are
/// positioned (`pread`-style), so any number of worker threads can
/// rehydrate concurrently through the shared read handle while the merge
/// thread appends.
#[derive(Clone)]
pub(super) struct DiskRef {
    file: Arc<File>,
    offset: u64,
    len: u64,
}

impl DiskRef {
    /// Reads back and decodes the checkpoint snapshot. A locator that
    /// reaches past the end of the segment file (a corrupt frontier
    /// record) is an `InvalidData` error before it sizes any buffer.
    pub(super) fn read(&self) -> io::Result<Snapshot> {
        let file_len = self.file.metadata()?.len();
        if !matches!(self.offset.checked_add(self.len), Some(end) if end <= file_len) {
            return Err(bad_data(format!(
                "checkpoint record at offset {} of length {} overruns the {file_len}-byte \
                 segment file",
                self.offset, self.len
            )));
        }
        let mut buf = vec![0u8; usize::try_from(self.len).map_err(bad_data)?];
        read_exact_at(&self.file, &mut buf, self.offset)?;
        Snapshot::decode(&buf).map_err(bad_data)
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "positioned segment-file reads require a unix platform",
    ))
}

fn bad_data<E>(e: E) -> io::Error
where
    E: Into<Box<dyn std::error::Error + Send + Sync>>,
{
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// The engine's storage seam. `put` stores one checkpoint snapshot and
/// returns its locator; `barrier` is called at every layer boundary (and
/// once more, with `done = true`, when the sweep ends) with everything a
/// resumption needs.
pub(super) trait SnapshotStore {
    /// Stores one checkpoint snapshot, charging any storage-side
    /// statistics, and returns where it now lives.
    fn put(&mut self, snap: &Arc<Snapshot>, stats: &mut ExploreStats) -> io::Result<SnapRef>;

    /// Whether checkpoint-depth nodes must stay resident (the in-memory
    /// store's anchors *are* the resident snapshots). The disk store
    /// answers `false`: its anchors live in the segment file, so
    /// checkpoint layers count against the resident ceiling like any
    /// other — the RAM bound really is the ceiling.
    fn exempts_checkpoints(&self) -> bool;

    /// Persists one layer barrier (a no-op for the in-memory store).
    fn barrier(&mut self, ck: &SweepCheckpoint<'_>) -> io::Result<()>;
}

/// Everything one layer barrier persists, borrowed from the engine.
pub(super) struct SweepCheckpoint<'a> {
    pub(super) ex: &'a Explorer,
    pub(super) layer: u64,
    pub(super) jobs: &'a [Job],
    pub(super) stats: &'a ExploreStats,
    pub(super) violations: &'a [Violation],
    /// Fingerprints newly committed to the visited set since the last
    /// barrier, in canonical merge order.
    pub(super) visited_delta: &'a [u64],
    pub(super) queued: u64,
    pub(super) complete: bool,
    /// `true` for the final barrier of a finished sweep.
    pub(super) done: bool,
}

/// The default store: checkpoint snapshots stay in memory as shared
/// `Arc`s. Byte-for-byte the pre-storage-seam engine.
pub(super) struct MemStore;

impl SnapshotStore for MemStore {
    fn put(&mut self, snap: &Arc<Snapshot>, _stats: &mut ExploreStats) -> io::Result<SnapRef> {
        Ok(SnapRef::Mem(Arc::clone(snap)))
    }

    fn exempts_checkpoints(&self) -> bool {
        true
    }

    fn barrier(&mut self, _ck: &SweepCheckpoint<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// The disk-spilling store: checkpoint snapshots go to the sweep
/// directory's segment file, and every layer barrier persists enough to
/// resume the sweep after a kill ([`open_sweep`]).
pub(super) struct SpillStore {
    dir: PathBuf,
    /// Segment file, opened read + append: the merge thread appends
    /// records, workers read them back at recorded offsets.
    segments: Arc<File>,
    segments_len: u64,
    visited: File,
    visited_len: u64,
    /// Previous barrier's state file, deleted after the manifest moves
    /// on to the next one.
    last_state: Option<String>,
}

impl SpillStore {
    /// Creates (or wipes) a sweep directory for a fresh sweep.
    pub(super) fn create(dir: &Path) -> io::Result<SpillStore> {
        fs::create_dir_all(dir)?;
        // A stale manifest from an earlier sweep must not survive into
        // the window before this sweep's first barrier.
        match fs::remove_file(dir.join("MANIFEST")) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let segments = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join("segments.bin"))?;
        segments.set_len(0)?;
        let visited = OpenOptions::new().append(true).create(true).open(dir.join("visited.bin"))?;
        visited.set_len(0)?;
        Ok(SpillStore {
            dir: dir.to_path_buf(),
            segments: Arc::new(segments),
            segments_len: 0,
            visited,
            visited_len: 0,
            last_state: None,
        })
    }
}

impl SnapshotStore for SpillStore {
    fn put(&mut self, snap: &Arc<Snapshot>, stats: &mut ExploreStats) -> io::Result<SnapRef> {
        let payload = snap.encode().map_err(bad_data)?;
        let len = payload.len() as u64;
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&payload);
        (&*self.segments).write_all(&record)?;
        let offset = self.segments_len + 8;
        self.segments_len += record.len() as u64;
        stats.spilled += 1;
        stats.spill_bytes += len;
        Ok(SnapRef::Disk(DiskRef { file: Arc::clone(&self.segments), offset, len }))
    }

    fn exempts_checkpoints(&self) -> bool {
        false
    }

    fn barrier(&mut self, ck: &SweepCheckpoint<'_>) -> io::Result<()> {
        if !ck.visited_delta.is_empty() {
            let mut buf = Vec::with_capacity(ck.visited_delta.len() * 8);
            for &fp in ck.visited_delta {
                buf.extend_from_slice(&fp.to_le_bytes());
            }
            self.visited.write_all(&buf)?;
            self.visited_len += buf.len() as u64;
        }
        // Data first, durably; only then the manifest that points into it.
        self.segments.sync_data()?;
        self.visited.sync_data()?;
        let state_name =
            if ck.done { "state-final.bin".to_string() } else { format!("state-{}.bin", ck.layer) };
        let state = encode_state(ck).map_err(bad_data)?;
        write_sync(&self.dir.join(&state_name), &state)?;
        let manifest = render_manifest(ck, self.segments_len, self.visited_len, &state_name)?;
        write_sync(&self.dir.join("MANIFEST.tmp"), manifest.as_bytes())?;
        fs::rename(self.dir.join("MANIFEST.tmp"), self.dir.join("MANIFEST"))?;
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

// --- frontier state file ---------------------------------------------------

/// Serializes violations + the layer's job list. Jobs sharing one node
/// (the per-choice expansions [`super::frontier::Engine`] queues
/// back-to-back) are grouped so the node record is written once.
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
    let groups = group_jobs(ck.jobs);
    w.put_usize(groups.len());
    for (node, kind) in groups {
        encode_node(&mut w, node, ck.ex.n)?;
        match kind {
            GroupKind::Tail => w.put_u8(0),
            GroupKind::Expand(choices) => {
                w.put_u8(1);
                w.put_usize(choices.len());
                for c in choices {
                    w.put_usize(c);
                }
            }
        }
    }
    Ok(w.into_vec())
}

enum GroupKind {
    Tail,
    Expand(Vec<usize>),
}

fn group_jobs(jobs: &[Job]) -> Vec<(&Node, GroupKind)> {
    let mut out: Vec<(&Arc<Node>, GroupKind)> = Vec::new();
    for job in jobs {
        match job {
            Job::Tail { node } => out.push((node, GroupKind::Tail)),
            Job::Expand { node, choice } => {
                if let Some((last, GroupKind::Expand(choices))) = out.last_mut() {
                    if Arc::ptr_eq(last, node) {
                        choices.push(*choice);
                        continue;
                    }
                }
                out.push((node, GroupKind::Expand(vec![*choice])));
            }
        }
    }
    out.into_iter().map(|(node, kind)| (&**node, kind)).collect()
}

/// One frontier node, in rehydratable (evicted) form: resident nodes are
/// flattened to the same scheduling metadata eviction keeps, since a
/// resumed node rebuilds its snapshot from its disk anchor anyway.
fn encode_node(w: &mut ByteWriter, node: &Node, n: usize) -> Result<(), CodecError> {
    w.put_usize(node.path.len());
    for &c in &node.path {
        w.put_usize(c);
    }
    w.put_usize(node.alive.len());
    for &p in &node.alive {
        w.put_usize(p);
    }
    match &node.incoming {
        None => w.put_u8(0),
        Some((pid, Action::Op(f))) => {
            w.put_u8(1);
            w.put_usize(*pid);
            encode_footprint(w, f);
        }
        Some((pid, Action::Crash)) => {
            w.put_u8(2);
            w.put_usize(*pid);
        }
        Some((pid, Action::Flush(f))) => {
            w.put_u8(3);
            w.put_usize(*pid);
            encode_footprint(w, f);
        }
    }
    w.put_usize(node.crash.crashes_so_far());
    let (pending, flush_heads, own_steps, steps) = match &node.store {
        Store::Resident(snap) => (
            (0..n).map(|p| snap.pending_footprint(p)).collect::<Vec<_>>(),
            (0..n).map(|p| snap.flush_footprint(p)).collect::<Vec<_>>(),
            (0..n).map(|p| snap.own_steps(p)).collect::<Vec<_>>(),
            snap.steps(),
        ),
        Store::Evicted { pending, flush_heads, own_steps, steps } => {
            (pending.clone(), flush_heads.clone(), own_steps.clone(), *steps)
        }
    };
    for footprints in [&pending, &flush_heads] {
        w.put_usize(footprints.len());
        for f in footprints {
            match f {
                None => w.put_u8(0),
                Some(f) => {
                    w.put_u8(1);
                    encode_footprint(w, f);
                }
            }
        }
    }
    w.put_usize(own_steps.len());
    for &s in &own_steps {
        w.put_u64(s);
    }
    w.put_u64(steps);
    match &node.anchor {
        None => w.put_u8(0),
        Some(anchor) => {
            let SnapRef::Disk(disk) = &anchor.snap else {
                // Under the spill store every `put` returns a disk ref,
                // so a memory anchor here is an engine bug.
                return Err(CodecError::UnsupportedValue { context: "in-memory anchor" });
            };
            w.put_u8(1);
            w.put_usize(anchor.depth);
            w.put_u64(disk.offset);
            w.put_u64(disk.len);
            w.put_usize(anchor.crash.crashes_so_far());
        }
    }
    Ok(())
}

fn decode_node(
    r: &mut ByteReader<'_>,
    policy: &Crashes,
    segments: &Arc<File>,
) -> Result<Node, CodecError> {
    let path = (0..r.usize()?).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
    let alive = (0..r.usize()?).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
    let incoming = match r.u8()? {
        0 => None,
        1 => {
            let pid = r.usize()?;
            Some((pid, Action::Op(decode_footprint(r)?)))
        }
        2 => Some((r.usize()?, Action::Crash)),
        3 => {
            let pid = r.usize()?;
            Some((pid, Action::Flush(decode_footprint(r)?)))
        }
        tag => return Err(CodecError::BadTag { what: "incoming action", tag: u64::from(tag) }),
    };
    let crash = CrashState::restore(policy.clone(), r.usize()?);
    let pending = (0..r.usize()?)
        .map(|_| match r.u8()? {
            0 => Ok(None),
            1 => decode_footprint(r).map(Some),
            tag => Err(CodecError::BadTag { what: "pending footprint", tag: u64::from(tag) }),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let flush_heads = (0..r.usize()?)
        .map(|_| match r.u8()? {
            0 => Ok(None),
            1 => decode_footprint(r).map(Some),
            tag => Err(CodecError::BadTag { what: "flush-head footprint", tag: u64::from(tag) }),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let own_steps = (0..r.usize()?).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
    let steps = r.u64()?;
    let anchor = match r.u8()? {
        0 => None,
        1 => {
            let depth = r.usize()?;
            let offset = r.u64()?;
            let len = r.u64()?;
            let crashes = r.usize()?;
            Some(Anchor {
                depth,
                snap: SnapRef::Disk(DiskRef { file: Arc::clone(segments), offset, len }),
                crash: CrashState::restore(policy.clone(), crashes),
            })
        }
        tag => return Err(CodecError::BadTag { what: "anchor", tag: u64::from(tag) }),
    };
    Ok(Node {
        store: Store::Evicted { pending, flush_heads, own_steps, steps },
        path,
        alive,
        incoming,
        crash,
        anchor,
    })
}

fn decode_state(
    bytes: &[u8],
    policy: &Crashes,
    segments: &Arc<File>,
) -> Result<(Vec<Violation>, Vec<Job>), CodecError> {
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
        let node = Arc::new(decode_node(&mut r, policy, segments)?);
        match r.u8()? {
            0 => jobs.push(Job::Tail { node }),
            1 => {
                for _ in 0..r.usize()? {
                    jobs.push(Job::Expand { node: Arc::clone(&node), choice: r.usize()? });
                }
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
    segments_len: u64,
    visited_len: u64,
    state_file: &str,
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
    kv("threads", ex.threads.to_string());
    kv("collect_all", ex.collect_all.to_string());
    kv("max_expansions", ex.limits.max_expansions.to_string());
    kv("max_steps", ex.limits.max_steps.to_string());
    kv("max_depth", (ex.limits.max_depth as u64).to_string());
    kv("prune_visited", ex.reduction.prune_visited.to_string());
    kv("dpor", ex.reduction.dpor.to_string());
    kv("quotient_obs", ex.reduction.quotient_obs.to_string());
    kv("view_summaries", ex.reduction.view_summaries.to_string());
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
    kv("segments_len", segments_len.to_string());
    kv("visited_len", visited_len.to_string());
    kv("state_file", state_file.to_string());
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
    kv("max_depth_seen", (stats.max_depth as u64).to_string());
    kv("depth_limited_runs", stats.depth_limited_runs.to_string());
    kv(
        "branching",
        stats.branching_histogram.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
    );
    Ok(out)
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
    let crashes = decode_crashes(m.field("crashes")?)?;
    let ex = Explorer {
        n: m.usize("n")?,
        crashes: crashes.clone(),
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
            view_summaries: m.bool("view_summaries")?,
            symmetry: m.bool("symmetry")?,
        },
        collect_all: m.bool("collect_all")?,
        threads: m.usize("threads")?,
        resident_ceiling: m.usize("resident_ceiling")?,
        checkpoint_every: m.usize("checkpoint_every")?,
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
    let segments =
        Arc::new(OpenOptions::new().read(true).append(true).open(dir.join("segments.bin"))?);
    let (violations, jobs) = decode_state(&state_bytes, &crashes, &segments).map_err(bad_data)?;
    if m.field("status")? == "done" {
        return Ok(OpenedSweep::Done(ExploreReport {
            complete: complete && violations.is_empty(),
            stats,
            violations,
        }));
    }
    // Torn-tail discipline: drop whatever the interrupted layer appended
    // past the last barrier, restoring the exact byte state it saw.
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
    let visited = visited_bytes[..visited_len_usize]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let visited_file = OpenOptions::new().append(true).open(dir.join("visited.bin"))?;
    visited_file.set_len(visited_len)?;
    let store = SpillStore {
        dir: dir.to_path_buf(),
        segments,
        segments_len,
        visited: visited_file,
        visited_len,
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
        let path = std::env::temp_dir().join(format!("mpcn-over-long-ref-{}", std::process::id()));
        fs::write(&path, [0u8; 64]).expect("write segment file");
        let file = Arc::new(File::open(&path).expect("open segment file"));
        let _ = fs::remove_file(&path);
        for (offset, len) in [(0, 1u64 << 36), (60, 8), (u64::MAX, 2)] {
            let disk = DiskRef { file: Arc::clone(&file), offset, len };
            let Err(e) = disk.read() else { panic!("offset {offset} len {len} must not decode") };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "offset {offset} len {len}: {e}");
        }
    }
}
