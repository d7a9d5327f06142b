//! A hand-rolled, versioned, endian-stable byte codec for [`Snapshot`].
//!
//! The disk-spilled frontier store ([`crate::explore`]) serializes
//! checkpoint-layer snapshots to an append-only segment file and
//! rehydrates them on demand, and a sweep's manifest makes the whole
//! exploration resumable across process restarts — so the encoding must
//! be a *stable format*, not an in-memory dump:
//!
//! * **Endian-stable**: every integer is little-endian, fixed width;
//!   `usize` travels as `u64`. Bytes written on one machine decode on any
//!   other.
//! * **Canonical**: map-shaped state (the object map, the per-kind op
//!   counters) is emitted in sorted key order, so encoding the same
//!   snapshot always yields the same bytes — the property the golden-bytes
//!   test pins and the spill-store byte-identity gates rely on.
//! * **Versioned**: the buffer starts with a magic tag and
//!   [`CODEC_VERSION`]; any format change must bump the version (and the
//!   golden-bytes test will fail loudly until it is).
//!
//! There is no serde in the offline vendor set, and none is needed: the
//! value universe of the model world is *closed*. Shared objects and
//! operation logs store type-erased [`Stored`] values, but every value the
//! paper's algorithms (and the explorer's test programs) put there is one
//! of a small set of concrete types — see [`encode_stored`]. Encoding
//! tries each supported downcast and tags the variant; decoding rebuilds
//! the exact original dynamic type, which is what lets a decoded
//! snapshot's log replay (`ResumeCtl::gate`'s typed downcast) succeed
//! bit-for-bit. A value outside the universe is a hard
//! [`CodecError::UnsupportedValue`] — extending the universe means adding
//! a tag here and bumping [`CODEC_VERSION`].
//!
//! Cell fingerprints are *recomputed* on decode (`fp_of` is a pure
//! function of the concrete value, see [`crate::fingerprint`]), so they
//! cost no bytes and cannot drift from the values they describe. The
//! incremental memory fingerprint is carried verbatim, so decode checks
//! a tracked snapshot's against the full-map walk over the decoded
//! objects: nothing downstream would catch a wrong one, because only the
//! gated engine's debug-build per-pick hashes compare the two. Decode
//! also rejects a process that is neither alive, decided with a result,
//! nor crashed without one — states no engine reaches.

use std::collections::HashMap;
use std::sync::Arc;

use super::snapshot::LogEntry;
use super::{BufferedWrite, Cell, Footprint, Object, Snapshot};
use crate::fingerprint::fp_of;
use crate::world::{ObjKey, Stored};

/// Version byte pair leading every encoded snapshot. Bump on **any**
/// format change — the golden-bytes test in this module fails on silent
/// drift, and the sweep manifest refuses to resume across versions.
///
/// v2: the TSO mode flag and per-process store-buffer contents
/// ([`crate::model_world::RunConfig::tso`]) joined the format. v3: the
/// encoded memory and observation fingerprints are made by the
/// word-wise [`crate::fingerprint::StateHasher`], not FNV-1a. v4: the
/// view-summary mode byte is gone, since every observation history
/// folds what its operations returned.
pub const CODEC_VERSION: u16 = 4;

/// Leading magic of an encoded snapshot record.
const MAGIC: &[u8; 4] = b"MPSN";

/// Why encoding or decoding a snapshot failed.
///
/// Encoding fails only on [`CodecError::UnsupportedValue`] (a stored
/// value outside the closed codec universe); every other variant is a
/// decode-side rejection of malformed or foreign bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value being decoded did.
    Truncated,
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The buffer's codec version is not [`CODEC_VERSION`].
    UnsupportedVersion(u16),
    /// An enum tag byte (`what` names which) held an unknown value.
    BadTag {
        /// Which tagged field was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A stored value's dynamic type is outside the closed codec
    /// universe (the codec module docs list it); `type_name` is the best
    /// available description of the offender.
    UnsupportedValue {
        /// Where the value sat (an object cell or a log entry).
        context: &'static str,
    },
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot buffer truncated"),
            CodecError::BadMagic => write!(f, "not an encoded snapshot (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "snapshot codec version {v} (this build reads {CODEC_VERSION})")
            }
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::UnsupportedValue { context } => write!(
                f,
                "stored value in {context} is outside the snapshot codec's closed type \
                 universe ((), bool, u64, (u64, u8), Option/Vec<Option> of those) — add a \
                 tag in model_world/codec.rs and bump CODEC_VERSION to spill programs \
                 storing new value types"
            ),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte sink shared by the snapshot codec and the
/// explorer's frontier/segment records.
#[derive(Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter::default()
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` always travels as `u64` (endian- and width-stable).
    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte source mirroring [`ByteWriter`]; every read is
/// bounds-checked into [`CodecError::Truncated`].
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Truncated)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag: u64::from(tag) }),
        }
    }

    /// Takes `n` raw bytes (for embedded payloads such as UTF-8 strings).
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the buffer was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Capacity to reserve for a length read from the bytes. Lengths come
/// from untrusted input, and an allocation failure aborts the process
/// instead of returning an error, so at most `1 << 16` elements are
/// reserved up front; longer collections grow as they decode.
fn capped(len: usize) -> usize {
    len.min(1 << 16)
}

// --- the closed value universe -------------------------------------------

const VAL_UNIT: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_U64: u8 = 2;
const VAL_PAIR: u8 = 3; // (u64, u8) — safe-agreement (value, level) cells
const VAL_OPT_U64: u8 = 4;
const VAL_VEC_OPT_U64: u8 = 5;
const VAL_OPT_PAIR: u8 = 6;
const VAL_VEC_OPT_PAIR: u8 = 7;

fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
    }
}

fn get_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(CodecError::BadTag { what: "option", tag: u64::from(tag) }),
    }
}

fn put_pair(w: &mut ByteWriter, (a, b): (u64, u8)) {
    w.put_u64(a);
    w.put_u8(b);
}

fn get_pair(r: &mut ByteReader<'_>) -> Result<(u64, u8), CodecError> {
    Ok((r.u64()?, r.u8()?))
}

/// Encodes one type-erased [`Stored`] value by trying each downcast of
/// the closed universe: `()`, `bool`, `u64`, `(u64, u8)`, `Option<u64>`,
/// `Vec<Option<u64>>`, `Option<(u64, u8)>`, `Vec<Option<(u64, u8)>>` —
/// every value the in-tree algorithms and explorer programs store.
/// Anything else is [`CodecError::UnsupportedValue`].
fn encode_stored(w: &mut ByteWriter, v: &Stored, context: &'static str) -> Result<(), CodecError> {
    if v.downcast_ref::<()>().is_some() {
        w.put_u8(VAL_UNIT);
    } else if let Some(&b) = v.downcast_ref::<bool>() {
        w.put_u8(VAL_BOOL);
        w.put_bool(b);
    } else if let Some(&x) = v.downcast_ref::<u64>() {
        w.put_u8(VAL_U64);
        w.put_u64(x);
    } else if let Some(&p) = v.downcast_ref::<(u64, u8)>() {
        w.put_u8(VAL_PAIR);
        put_pair(w, p);
    } else if let Some(&o) = v.downcast_ref::<Option<u64>>() {
        w.put_u8(VAL_OPT_U64);
        put_opt_u64(w, o);
    } else if let Some(xs) = v.downcast_ref::<Vec<Option<u64>>>() {
        w.put_u8(VAL_VEC_OPT_U64);
        w.put_usize(xs.len());
        for &x in xs {
            put_opt_u64(w, x);
        }
    } else if let Some(&o) = v.downcast_ref::<Option<(u64, u8)>>() {
        w.put_u8(VAL_OPT_PAIR);
        match o {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                put_pair(w, p);
            }
        }
    } else if let Some(xs) = v.downcast_ref::<Vec<Option<(u64, u8)>>>() {
        w.put_u8(VAL_VEC_OPT_PAIR);
        w.put_usize(xs.len());
        for &x in xs {
            match x {
                None => w.put_u8(0),
                Some(p) => {
                    w.put_u8(1);
                    put_pair(w, p);
                }
            }
        }
    } else {
        return Err(CodecError::UnsupportedValue { context });
    }
    Ok(())
}

/// Decodes one tagged value, rebuilding the **exact original dynamic
/// type** behind the [`Stored`] erasure (log replay downcasts to the
/// concrete type) and, under `track`, its fingerprint (recomputed — same
/// concrete value, same [`fp_of`] word).
fn decode_stored(r: &mut ByteReader<'_>, track: bool) -> Result<(Stored, u64), CodecError> {
    fn pack<T: crate::world::MemVal>(v: T, track: bool) -> (Stored, u64) {
        let fp = if track { fp_of(&v) } else { 0 };
        (Arc::new(v) as Stored, fp)
    }
    match r.u8()? {
        VAL_UNIT => Ok(pack((), track)),
        VAL_BOOL => Ok(pack(r.bool()?, track)),
        VAL_U64 => Ok(pack(r.u64()?, track)),
        VAL_PAIR => Ok(pack(get_pair(r)?, track)),
        VAL_OPT_U64 => Ok(pack(get_opt_u64(r)?, track)),
        VAL_VEC_OPT_U64 => {
            let len = r.usize()?;
            let mut xs = Vec::with_capacity(capped(len));
            for _ in 0..len {
                xs.push(get_opt_u64(r)?);
            }
            Ok(pack(xs, track))
        }
        VAL_OPT_PAIR => {
            let o = match r.u8()? {
                0 => None,
                1 => Some(get_pair(r)?),
                tag => return Err(CodecError::BadTag { what: "option", tag: u64::from(tag) }),
            };
            Ok(pack(o, track))
        }
        VAL_VEC_OPT_PAIR => {
            let len = r.usize()?;
            let mut xs = Vec::with_capacity(capped(len));
            for _ in 0..len {
                xs.push(match r.u8()? {
                    0 => None,
                    1 => Some(get_pair(r)?),
                    tag => return Err(CodecError::BadTag { what: "option", tag: u64::from(tag) }),
                });
            }
            Ok(pack(xs, track))
        }
        tag => Err(CodecError::BadTag { what: "stored value", tag: u64::from(tag) }),
    }
}

/// Fingerprints one type-erased [`Stored`] value **after relabeling every
/// `u64` leaf** through `relabel` under the pid map `perm` — the value
/// half of the process-identity symmetry quotient
/// ([`crate::model_world::Snapshot::fingerprint_symmetric`]). Walks the
/// same closed universe as [`encode_stored`], rebuilds the relabeled
/// concrete value, and returns its [`fp_of`] word — so a value that
/// relabels to itself fingerprints exactly like its stored cell, and a
/// decoded-from-disk snapshot (which re-packs the identical concrete
/// values) produces the identical word, byte-stably.
///
/// Leaves are relabeled **in place**: element order of `Vec` values is
/// preserved, so raw pid-indexed scan views do not canonicalize across
/// their index permutation (a reduction loss for programs that log raw
/// views, never an unsoundness — the map stays injective per `perm`).
/// Returns `None` for values outside the universe; the caller decides
/// whether a sound fallback exists (memory cells: yes, the cell's own
/// fingerprint; log entries: no — see the §7 contract in
/// `docs/EXPLORER.md`).
pub(crate) fn stored_symm_fp(
    v: &Stored,
    perm: &[crate::world::Pid],
    relabel: fn(u64, &[crate::world::Pid]) -> u64,
) -> Option<u64> {
    if v.downcast_ref::<()>().is_some() {
        Some(fp_of(&()))
    } else if let Some(&b) = v.downcast_ref::<bool>() {
        Some(fp_of(&b))
    } else if let Some(&x) = v.downcast_ref::<u64>() {
        Some(fp_of(&relabel(x, perm)))
    } else if let Some(&(a, b)) = v.downcast_ref::<(u64, u8)>() {
        Some(fp_of(&(relabel(a, perm), b)))
    } else if let Some(&o) = v.downcast_ref::<Option<u64>>() {
        Some(fp_of(&o.map(|x| relabel(x, perm))))
    } else if let Some(xs) = v.downcast_ref::<Vec<Option<u64>>>() {
        let ys: Vec<Option<u64>> = xs.iter().map(|o| o.map(|x| relabel(x, perm))).collect();
        Some(fp_of(&ys))
    } else if let Some(&o) = v.downcast_ref::<Option<(u64, u8)>>() {
        Some(fp_of(&o.map(|(a, b)| (relabel(a, perm), b))))
    } else if let Some(xs) = v.downcast_ref::<Vec<Option<(u64, u8)>>>() {
        let ys: Vec<Option<(u64, u8)>> =
            xs.iter().map(|o| o.map(|(a, b)| (relabel(a, perm), b))).collect();
        Some(fp_of(&ys))
    } else {
        None
    }
}

// --- keys, footprints, cells, objects ------------------------------------

pub(crate) fn encode_key(w: &mut ByteWriter, key: ObjKey) {
    w.put_u32(key.kind);
    w.put_u64(key.a);
    w.put_u64(key.b);
}

pub(crate) fn decode_key(r: &mut ByteReader<'_>) -> Result<ObjKey, CodecError> {
    Ok(ObjKey::new(r.u32()?, r.u64()?, r.u64()?))
}

/// Encodes a dependency [`Footprint`] (op tag, key, optional cell,
/// purity) — a snapshot's pending operations.
fn encode_footprint(w: &mut ByteWriter, f: &Footprint) {
    w.put_u64(f.op);
    encode_key(w, f.key);
    put_opt_u64(w, f.cell);
    w.put_bool(f.pure_read);
}

fn decode_footprint(r: &mut ByteReader<'_>) -> Result<Footprint, CodecError> {
    let op = r.u64()?;
    let key = decode_key(r)?;
    let cell = get_opt_u64(r)?;
    let pure_read = r.bool()?;
    Ok(Footprint::new(op, key, cell, pure_read))
}

fn encode_cell_opt(
    w: &mut ByteWriter,
    cell: &Option<Cell>,
    context: &'static str,
) -> Result<(), CodecError> {
    match cell {
        None => {
            w.put_u8(0);
            Ok(())
        }
        Some(c) => {
            w.put_u8(1);
            encode_stored(w, &c.val, context)
        }
    }
}

fn decode_cell_opt(r: &mut ByteReader<'_>, track: bool) -> Result<Option<Cell>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let (val, fp) = decode_stored(r, track)?;
            Ok(Some(Cell { val, fp }))
        }
        tag => Err(CodecError::BadTag { what: "cell option", tag: u64::from(tag) }),
    }
}

const OBJ_REGISTER: u8 = 1;
const OBJ_SNAPSHOT: u8 = 2;
const OBJ_TAS: u8 = 3;
const OBJ_XCONS: u8 = 4;

fn encode_object(w: &mut ByteWriter, obj: &Object) -> Result<(), CodecError> {
    match obj {
        Object::Register(slot) => {
            w.put_u8(OBJ_REGISTER);
            encode_cell_opt(w, slot, "a register")
        }
        Object::Snapshot(cells) => {
            w.put_u8(OBJ_SNAPSHOT);
            w.put_usize(cells.len());
            for c in cells {
                encode_cell_opt(w, c, "a snapshot cell")?;
            }
            Ok(())
        }
        Object::Tas(taken) => {
            w.put_u8(OBJ_TAS);
            w.put_bool(*taken);
            Ok(())
        }
        Object::XCons { ports, decided } => {
            w.put_u8(OBJ_XCONS);
            w.put_usize(ports.len());
            for &p in ports {
                w.put_usize(p);
            }
            encode_cell_opt(w, decided, "an x-consensus object")
        }
    }
}

fn decode_object(r: &mut ByteReader<'_>, track: bool) -> Result<Object, CodecError> {
    match r.u8()? {
        OBJ_REGISTER => Ok(Object::Register(decode_cell_opt(r, track)?)),
        OBJ_SNAPSHOT => {
            let len = r.usize()?;
            let mut cells = Vec::with_capacity(capped(len));
            for _ in 0..len {
                cells.push(decode_cell_opt(r, track)?);
            }
            Ok(Object::Snapshot(cells))
        }
        OBJ_TAS => Ok(Object::Tas(r.bool()?)),
        OBJ_XCONS => {
            let len = r.usize()?;
            let mut ports = Vec::with_capacity(capped(len));
            for _ in 0..len {
                ports.push(r.usize()?);
            }
            Ok(Object::XCons { ports, decided: decode_cell_opt(r, track)? })
        }
        tag => Err(CodecError::BadTag { what: "object", tag: u64::from(tag) }),
    }
}

// --- the snapshot itself -------------------------------------------------

impl Snapshot {
    /// Encodes this snapshot to the versioned, endian-stable, canonical
    /// byte format (the codec module docs describe it). Encoding the same snapshot
    /// twice yields identical bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnsupportedValue`] if shared memory or an operation
    /// log holds a value outside the closed codec universe.
    pub fn encode(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u16(CODEC_VERSION);
        w.put_usize(self.n);
        w.put_bool(self.track);
        w.put_bool(self.tso);
        let mut keys: Vec<ObjKey> = self.objects.keys().copied().collect();
        keys.sort_unstable();
        w.put_usize(keys.len());
        for key in keys {
            encode_key(&mut w, key);
            encode_object(&mut w, &self.objects[&key])?;
        }
        w.put_u64(self.mem_fp);
        for &fp in &self.obs_fp {
            w.put_u64(fp);
        }
        for log in &self.logs {
            w.put_usize(log.len());
            for entry in log.iter() {
                w.put_u64(entry.op);
                encode_key(&mut w, entry.key);
                encode_stored(&mut w, &entry.result, "an operation log")?;
            }
        }
        for p in 0..self.n {
            w.put_bool(self.finished[p]);
            w.put_bool(self.crashed[p]);
            put_opt_u64(&mut w, self.results[p]);
            match &self.pending_op[p] {
                None => w.put_u8(0),
                Some(f) => {
                    w.put_u8(1);
                    encode_footprint(&mut w, f);
                }
            }
            w.put_u64(self.own_steps[p]);
        }
        for buf in &self.buffers {
            w.put_usize(buf.len());
            for bw in buf {
                encode_key(&mut w, bw.key);
                put_opt_u64(&mut w, bw.cell_idx.map(|i| i as u64));
                w.put_usize(bw.len);
                encode_stored(&mut w, &bw.cell.val, "a store buffer")?;
            }
        }
        let mut kinds: Vec<u32> = self.op_counts.keys().copied().collect();
        kinds.sort_unstable();
        w.put_usize(kinds.len());
        for kind in kinds {
            w.put_u32(kind);
            w.put_u64(self.op_counts[&kind]);
        }
        w.put_u64(self.steps);
        Ok(w.into_vec())
    }

    /// Decodes a snapshot from [`Snapshot::encode`] bytes. Exact
    /// roundtrip: the decoded snapshot re-encodes to the same bytes,
    /// reports the same fingerprints, and resumes identically (its log
    /// values carry their original dynamic types) — property-tested in
    /// `tests/proptests.rs` on random programs and on post-crash states.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] decode variant on malformed, truncated, or
    /// version-mismatched bytes, and [`CodecError::BadTag`] on a state no
    /// engine reaches: a tracked snapshot whose memory fingerprint
    /// disagrees with its objects, or a process that is neither alive,
    /// decided with a result, nor crashed without one.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC.as_slice() {
            return Err(CodecError::BadMagic);
        }
        let version = r.u16()?;
        if version != CODEC_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let n = r.usize()?;
        let track = r.bool()?;
        let tso = r.bool()?;
        let obj_count = r.usize()?;
        let mut objects = HashMap::with_capacity_and_hasher(capped(obj_count), Default::default());
        for _ in 0..obj_count {
            let key = decode_key(&mut r)?;
            objects.insert(key, decode_object(&mut r, track)?);
        }
        let mem_fp = r.u64()?;
        let mut obs_fp = Vec::with_capacity(capped(n));
        for _ in 0..n {
            obs_fp.push(r.u64()?);
        }
        let mut logs = Vec::with_capacity(capped(n));
        for _ in 0..n {
            let len = r.usize()?;
            let mut log = Vec::with_capacity(capped(len));
            for _ in 0..len {
                let op = r.u64()?;
                let key = decode_key(&mut r)?;
                let (result, _) = decode_stored(&mut r, false)?;
                log.push(LogEntry::new(op, key, result));
            }
            logs.push(Arc::new(log));
        }
        let mut finished = Vec::with_capacity(capped(n));
        let mut crashed = Vec::with_capacity(capped(n));
        let mut results = Vec::with_capacity(capped(n));
        let mut pending_op = Vec::with_capacity(capped(n));
        let mut own_steps = Vec::with_capacity(capped(n));
        for _ in 0..n {
            let (done, crash, result) = (r.bool()?, r.bool()?, get_opt_u64(&mut r)?);
            match (done, crash, result.is_some()) {
                (false, false, false) | (true, false, true) | (false, true, false) => {}
                _ => {
                    let tag =
                        u64::from(done) | u64::from(crash) << 1 | u64::from(result.is_some()) << 2;
                    return Err(CodecError::BadTag { what: "process liveness", tag });
                }
            }
            finished.push(done);
            crashed.push(crash);
            results.push(result);
            pending_op.push(match r.u8()? {
                0 => None,
                1 => Some(decode_footprint(&mut r)?),
                tag => return Err(CodecError::BadTag { what: "pending op", tag: u64::from(tag) }),
            });
            own_steps.push(r.u64()?);
        }
        let mut buffers = Vec::with_capacity(capped(n));
        for _ in 0..n {
            let blen = r.usize()?;
            let mut buf = Vec::with_capacity(capped(blen));
            for _ in 0..blen {
                let key = decode_key(&mut r)?;
                let cell_idx = get_opt_u64(&mut r)?
                    .map(usize::try_from)
                    .transpose()
                    .map_err(|_| CodecError::Truncated)?;
                let len = r.usize()?;
                let (val, fp) = decode_stored(&mut r, track)?;
                buf.push(BufferedWrite { key, cell_idx, len, cell: Cell { val, fp } });
            }
            buffers.push(buf);
        }
        let kind_count = r.usize()?;
        let mut op_counts =
            HashMap::with_capacity_and_hasher(capped(kind_count), Default::default());
        for _ in 0..kind_count {
            let kind = r.u32()?;
            op_counts.insert(kind, r.u64()?);
        }
        let steps = r.u64()?;
        r.finish()?;
        let snap = Snapshot {
            n,
            track,
            objects,
            mem_fp,
            obs_fp,
            logs,
            finished,
            crashed,
            results,
            pending_op,
            own_steps,
            op_counts,
            steps,
            tso,
            buffers,
        };
        if track && snap.recompute_mem_fp() != mem_fp {
            return Err(CodecError::BadTag { what: "memory fingerprint", tag: mem_fp });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Body, ModelWorld};
    use super::*;
    use crate::world::Env;

    fn tiny_bodies() -> Vec<Body> {
        vec![
            Box::new(|env: Env<ModelWorld>| {
                env.reg_write(ObjKey::new(40, 0, 0), 7u64);
                u64::from(env.tas(ObjKey::new(41, 0, 0)))
            }),
            Box::new(|env: Env<ModelWorld>| {
                env.snap_write(ObjKey::new(42, 0, 0), 2, 1, (9u64, 1u8));
                env.reg_read::<u64>(ObjKey::new(40, 0, 0)).unwrap_or(0)
            }),
        ]
    }

    fn body_of(pid: usize) -> Body {
        tiny_bodies().into_iter().nth(pid).unwrap()
    }

    /// A fixed mid-run state exercising most of the format: registers,
    /// a snapshot object holding a `(u64, u8)` cell, a taken test&set,
    /// `()` / `bool` / `Option<u64>` log results, one finished process
    /// with a result, and one parked pending footprint.
    fn tiny_snapshot() -> Snapshot {
        let mut snap = ModelWorld::snapshot_root(2, true, true, tiny_bodies());
        for pid in [0usize, 1, 0] {
            snap = ModelWorld::resume_from(&snap, pid, body_of(pid));
        }
        snap
    }

    #[test]
    fn roundtrip_is_exact_on_a_tiny_program() {
        let snap = tiny_snapshot();
        let bytes = snap.encode().expect("in-universe values");
        let back = Snapshot::decode(&bytes).expect("own bytes decode");
        assert_eq!(back.encode().unwrap(), bytes, "re-encode must reproduce the bytes");
        assert_eq!(back.fingerprint(), snap.fingerprint());
        assert_eq!(back.fingerprint_quotient(), snap.fingerprint_quotient());
        assert_eq!(back.alive(), snap.alive());
        let (orig, dec) = (snap.report(false), back.report(false));
        assert_eq!(dec.outcomes, orig.outcomes);
        assert_eq!(dec.steps, orig.steps);
        assert_eq!(dec.ops_by_kind, orig.ops_by_kind);
        // The decoded snapshot must *resume*: log replay downcasts log
        // results to their original concrete types.
        let stepped_orig = ModelWorld::resume_from(&snap, 1, body_of(1));
        let stepped_back = ModelWorld::resume_from(&back, 1, body_of(1));
        assert_eq!(stepped_back.fingerprint(), stepped_orig.fingerprint());
    }

    #[test]
    fn crashed_states_roundtrip() {
        let snap = ModelWorld::resume_crash(&tiny_snapshot(), 1);
        let back = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        assert_eq!(back.alive(), snap.alive());
        assert_eq!(back.fingerprint(), snap.fingerprint());
        assert_eq!(back.report(false).outcomes, snap.report(false).outcomes);
    }

    /// Golden bytes: the canonical encoding of a fixed tiny snapshot,
    /// pinned as hex. A silent format change fails here — bump
    /// [`CODEC_VERSION`] (and re-pin) instead.
    #[test]
    fn golden_bytes_are_pinned() {
        let bytes = tiny_snapshot().encode().unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX, "snapshot byte format drifted — bump CODEC_VERSION");
    }

    const GOLDEN_HEX: &str = "4d50534e040002000000000000000100030000000000000028000000000000000000000000000000000000000101020700000000000000290000000000000000000000000000000000000003012a00000000000000000000000000000000000000020200000000000000000103090000000000000001178eaf6cd3e7e90fbab3d83a41955ba4b30f5778a73f457b02000000000000000100000000000000280000000000000000000000000000000000000000050000000000000029000000000000000000000000000000000000000101010000000000000003000000000000002a000000000000000000000000000000000000000001000101000000000000000002000000000000000000000102000000000000002800000000000000000000000000000000000000000101000000000000000000000000000000000000000000000003000000000000002800000001000000000000002900000001000000000000002a00000001000000000000000300000000000000";

    #[test]
    fn foreign_and_truncated_bytes_are_rejected() {
        let bytes = tiny_snapshot().encode().unwrap();
        assert!(matches!(Snapshot::decode(b"np"), Err(CodecError::Truncated)));
        assert!(matches!(Snapshot::decode(b"nope"), Err(CodecError::BadMagic)));
        assert!(matches!(Snapshot::decode(&bytes[..bytes.len() - 1]), Err(CodecError::Truncated)));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(matches!(Snapshot::decode(&wrong_version), Err(CodecError::UnsupportedVersion(_))));
        // A v2 snapshot carries FNV-1a fingerprints and a v3 one a
        // view-summary mode byte: each is refused by its version, never
        // decoded.
        for old in [2u16, 3] {
            let mut stale = bytes.clone();
            stale[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(Snapshot::decode(&stale).err(), Some(CodecError::UnsupportedVersion(old)));
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(Snapshot::decode(&trailing), Err(CodecError::TrailingBytes(1))));
    }

    /// Corrupt bytes end in a typed error, never a panic or an abort:
    /// every single-bit flip and every truncation of the tiny snapshot's
    /// encoding decodes to `Ok` or `Err`. Each case runs under
    /// `catch_unwind`, so a panic names its case; a decoded length must
    /// never size an allocation, because an allocation failure aborts
    /// the whole process.
    #[test]
    fn corrupt_bytes_decode_without_panicking() {
        let bytes = tiny_snapshot().encode().unwrap();
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            (format!("bit {bit} flipped"), flipped)
        });
        let truncations =
            (0..bytes.len()).map(|len| (format!("cut to {len} bytes"), bytes[..len].to_vec()));
        let panicked: Vec<String> = flips
            .chain(truncations)
            .filter(|(_, corrupt)| std::panic::catch_unwind(|| Snapshot::decode(corrupt)).is_err())
            .map(|(case, _)| case)
            .collect();
        assert!(panicked.is_empty(), "decode panicked on: {panicked:?}");
    }

    /// A tracked snapshot whose stored memory fingerprint disagrees with
    /// its objects is rejected: a sweep would otherwise carry the wrong
    /// word into every fingerprint it derives from the snapshot.
    #[test]
    fn mismatched_memory_fingerprint_is_rejected() {
        let mut snap = tiny_snapshot();
        snap.mem_fp ^= 1;
        let err = Snapshot::decode(&snap.encode().unwrap()).unwrap_err();
        assert!(matches!(err, CodecError::BadTag { what: "memory fingerprint", .. }), "{err}");
    }

    /// Every engine leaves a process alive, decided with a result, or
    /// crashed without one. A process marked finished without a result
    /// would report `Undecided` and never be scheduled, so it is
    /// rejected.
    #[test]
    fn finished_process_without_a_result_is_rejected() {
        let mut snap = tiny_snapshot();
        assert_eq!(snap.alive(), vec![1], "pid 1 is still running");
        snap.finished[1] = true;
        let err = Snapshot::decode(&snap.encode().unwrap()).unwrap_err();
        assert!(matches!(err, CodecError::BadTag { what: "process liveness", tag: 1 }), "{err}");
    }

    #[test]
    fn tso_snapshots_roundtrip_buffer_contents() {
        // A TSO path with writes parked in a store buffer whose owner has
        // already finished: the buffers (and the mode flag) must survive
        // the byte roundtrip — same fingerprint, same flushability, and
        // flushing the decoded snapshot moves memory identically.
        let bodies = || -> Vec<Body> {
            vec![
                Box::new(|env: Env<ModelWorld>| {
                    env.reg_write(ObjKey::new(50, 0, 0), 3u64);
                    env.snap_write(ObjKey::new(51, 0, 0), 2, 0, (4u64, 1u8));
                    0
                }),
                Box::new(|env: Env<ModelWorld>| {
                    env.reg_read::<u64>(ObjKey::new(50, 0, 0)).unwrap_or(9)
                }),
            ]
        };
        let body_of = |pid: usize| bodies().into_iter().nth(pid).unwrap();
        let mut snap = ModelWorld::snapshot_root_tso(2, true, true, true, bodies());
        snap = ModelWorld::resume_from(&snap, 0, body_of(0));
        snap = ModelWorld::resume_from(&snap, 0, body_of(0));
        assert_eq!(snap.flushable(), vec![0]);
        assert_eq!(snap.buffered(0), 2);
        assert!(!snap.is_terminal(), "undrained buffers keep the state live");
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert!(back.is_tso());
        assert_eq!(back.encode().unwrap(), bytes);
        assert_eq!(back.fingerprint(), snap.fingerprint());
        assert_eq!(back.flushable(), snap.flushable());
        assert_eq!(back.flush_footprint(0), snap.flush_footprint(0));
        let f1 = ModelWorld::resume_flush(&ModelWorld::resume_flush(&snap, 0), 0);
        let f2 = ModelWorld::resume_flush(&ModelWorld::resume_flush(&back, 0), 0);
        assert_eq!(f1.fingerprint(), f2.fingerprint());
        assert!(!f1.is_tso() || f1.flushable().is_empty());
    }

    #[test]
    fn out_of_universe_values_error_loudly() {
        // A register holding a Vec<u64> — hashable (so the model world
        // accepts it) but outside the closed codec universe.
        let bodies = || -> Vec<Body> {
            vec![Box::new(|env: Env<ModelWorld>| {
                env.reg_write(ObjKey::new(43, 0, 0), vec![1u64, 2]);
                0
            })]
        };
        let root = ModelWorld::snapshot_root(1, true, true, bodies());
        let snap = ModelWorld::resume_from(&root, 0, bodies().remove(0));
        let err = snap.encode().unwrap_err();
        assert!(matches!(err, CodecError::UnsupportedValue { .. }));
        assert!(err.to_string().contains("closed type"), "{err}");
    }
}
