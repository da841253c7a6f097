//! Durable snapshots of warm serving state: the daemon's crash-recovery
//! layer.
//!
//! Two kinds of files live in the `--snapshot-dir`, both in the same
//! checksummed envelope around a [`SerializedBdd`] node slice:
//!
//! * **Warm snapshots** (`warm-<hash>.pnsnap`) — one per pooled net: the
//!   net's canonical hash, its spec string, and the context's one
//!   *complete* [`ReachabilityResult`] (tagged with the strategy that
//!   produced it) with the reached set exported as a single-rooted BDD
//!   slice. Written when a query completes and when the LRU pool evicts a
//!   warm entry (spill-instead-of-drop).
//! * **Checkpoints** (`ckpt-<hash>.pnsnap`) — the partial reached set of
//!   a long-running fixpoint, rewritten at pass boundaries. A restart
//!   resumes the traversal from the checkpointed set instead of the
//!   initial marking, under whatever strategy the resuming query names:
//!   the seed is a subset of the fixpoint, so resuming is sound. The file
//!   is deleted when the fixpoint completes.
//!
//! Either kind carries exactly one entry and one root: there is one
//! reached set per context, independent of the traversal strategy. The
//! store owns the only byte layout of a snapshot; all integers are
//! little-endian:
//!
//! ```text
//! magic "PNSYMDS\0" · version u32 · kind u8 · net hash u64 · spec
//! entry count u32 (always 1) · strategy · marking count (f64 bits) · passes u64
//! order: u32 count, then one u32 variable id per level, top first
//! nodes: u32 count, then (level, low, high) u32 triples, children first
//! root: u32 packed edge
//! checksum u64 over everything before it (snapshot_checksum)
//! ```
//!
//! Strings are a u32 byte length and UTF-8 bytes. A version-1 file, which
//! wrapped the slice in a second blob with its own magic, version, tag and
//! checksum, is a typed rejection and is rebuilt cold.
//!
//! Every write is atomic — write to a temp file, `fsync`, rename — so a
//! `kill -9` at any instant leaves either the previous file or the new
//! one, never a readable torn file. Every read validates the trailing
//! checksum *before* trusting any length field, then re-validates the
//! node slice through [`SerializedBdd::from_parts`]; any mismatch is a
//! typed [`SnapshotRejection`], the offending file is deleted, and the
//! caller degrades to a cold rebuild. No input, however corrupt, panics.
//!
//! Under the `fault-inject` feature the store can be armed with a
//! `DiskFaultSchedule` (defined in this module; feature-gated, so no doc
//! link here) that deterministically injects short writes, failed renames
//! and corrupt-on-read bit flips at these sites, which is how the
//! disk-fault matrix exercises the degradation paths.

use super::mix_bytes;
use super::pool::WarmContext;
use crate::context::SymbolicContext;
use crate::traverse::{FixpointStrategy, ParseStrategyError, ReachabilityResult};
use pnsym_bdd::{Ref, SerializedBdd, VarId};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic prefix of a snapshot file.
const STORE_MAGIC: &[u8; 8] = b"PNSYMDS\0";
/// Snapshot format version.
const STORE_VERSION: u32 = 2;
const KIND_WARM: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

/// Why a snapshot file was rejected. Every variant degrades to a cold
/// rebuild: the file is deleted and the query proceeds as a miss.
#[derive(Debug)]
pub enum SnapshotRejection {
    /// Reading the file failed at the I/O level.
    Io(io::Error),
    /// The envelope is malformed: bad magic, checksum mismatch, torn or
    /// trailing bytes, a bad length field, non-UTF-8 text, or a node slice
    /// that fails [`SerializedBdd::from_parts`].
    Envelope(&'static str),
    /// The envelope's format version is not understood.
    Version(u32),
    /// The snapshot does not match the live state it would restore into:
    /// wrong net hash, wrong variable count, an unknown strategy name, or
    /// a restored reached set whose marking count disagrees with the one
    /// recorded at save time.
    Mismatch(String),
}

impl std::fmt::Display for SnapshotRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotRejection::Io(err) => write!(f, "i/o error: {err}"),
            SnapshotRejection::Envelope(what) => write!(f, "malformed envelope: {what}"),
            SnapshotRejection::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotRejection::Mismatch(what) => write!(f, "snapshot/state mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapshotRejection {}

/// The one record of a snapshot envelope: the strategy that produced the
/// set, its marking count (0 for a checkpoint) and its pass count.
#[derive(Debug)]
struct RawEntry {
    strategy: String,
    num_markings: f64,
    iterations: u64,
}

/// A fully decoded (checksum-verified, slice-validated) snapshot file.
struct Payload {
    kind: u8,
    net_hash: u64,
    spec: String,
    entry: RawEntry,
    bdd: SerializedBdd,
}

/// A warm snapshot read, checksummed and decoded once
/// ([`SnapshotStore::read_warm`]): startup rehydration learns the spec to
/// build a context for from it, then imports it into that context
/// ([`SnapshotStore::import_warm`]) without reading the file again.
pub(crate) struct WarmSnapshot {
    key: u64,
    payload: Payload,
}

impl WarmSnapshot {
    /// The net spec the snapshot was saved under.
    pub(crate) fn spec(&self) -> &str {
        &self.payload.spec
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotRejection> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotRejection::Envelope("truncated field"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotRejection> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotRejection> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, SnapshotRejection> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotRejection::Envelope("non-UTF-8 string"))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The checksum that closes every snapshot file: the serving layer's
/// `mix` chained over the length and the 8-byte words of everything
/// before it.
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    mix_bytes(0x736e_6170, bytes)
}

fn encode(kind: u8, net_hash: u64, spec: &str, entry: &RawEntry, bdd: &SerializedBdd) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + 4 * bdd.num_vars() + 12 * bdd.num_nodes());
    out.extend_from_slice(STORE_MAGIC);
    push_u32(&mut out, STORE_VERSION);
    out.push(kind);
    push_u64(&mut out, net_hash);
    push_str(&mut out, spec);
    push_u32(&mut out, 1);
    push_str(&mut out, &entry.strategy);
    push_u64(&mut out, entry.num_markings.to_bits());
    push_u64(&mut out, entry.iterations);
    push_u32(&mut out, bdd.num_vars() as u32);
    for v in bdd.order() {
        push_u32(&mut out, v.0);
    }
    push_u32(&mut out, bdd.num_nodes() as u32);
    for &(level, low, high) in bdd.nodes() {
        push_u32(&mut out, level);
        push_u32(&mut out, low);
        push_u32(&mut out, high);
    }
    push_u32(&mut out, bdd.roots()[0]);
    let sum = snapshot_checksum(&out);
    push_u64(&mut out, sum);
    out
}

fn decode(bytes: &[u8]) -> Result<Payload, SnapshotRejection> {
    if bytes.len() < STORE_MAGIC.len() + 8 {
        return Err(SnapshotRejection::Envelope("file too short"));
    }
    if !bytes.starts_with(STORE_MAGIC) {
        return Err(SnapshotRejection::Envelope("bad magic"));
    }
    // Verify the trailing checksum over the whole body *first*: after this
    // every length field is trusted-as-written, and a torn or bit-flipped
    // file cannot steer the parse. A forged length still cannot allocate
    // past the file: every record is read before it is stored.
    let (body, stored) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(stored.try_into().unwrap());
    if snapshot_checksum(body) != stored {
        return Err(SnapshotRejection::Envelope("checksum mismatch"));
    }
    let mut r = Reader {
        bytes: body,
        pos: STORE_MAGIC.len(),
    };
    let version = r.u32()?;
    if version != STORE_VERSION {
        return Err(SnapshotRejection::Version(version));
    }
    let kind = r.take(1)?[0];
    if kind != KIND_WARM && kind != KIND_CHECKPOINT {
        return Err(SnapshotRejection::Envelope("unknown snapshot kind"));
    }
    let net_hash = r.u64()?;
    let spec = r.str()?;
    if r.u32()? != 1 {
        return Err(SnapshotRejection::Envelope(
            "snapshot must carry exactly one entry",
        ));
    }
    let entry = RawEntry {
        strategy: r.str()?,
        num_markings: f64::from_bits(r.u64()?),
        iterations: r.u64()?,
    };
    let num_vars = r.u32()?;
    let order = (0..num_vars)
        .map(|_| r.u32().map(VarId))
        .collect::<Result<_, _>>()?;
    let num_nodes = r.u32()?;
    let nodes = (0..num_nodes)
        .map(|_| Ok((r.u32()?, r.u32()?, r.u32()?)))
        .collect::<Result<_, _>>()?;
    let root = r.u32()?;
    if r.remaining() != 0 {
        return Err(SnapshotRejection::Envelope("trailing bytes"));
    }
    let bdd =
        SerializedBdd::from_parts(order, nodes, vec![root]).map_err(SnapshotRejection::Envelope)?;
    Ok(Payload {
        kind,
        net_hash,
        spec,
        entry,
        bdd,
    })
}

/// Imports the decoded single-rooted slice into a live context, reordering
/// the manager to the snapshot's variable order first (imports require
/// order equality). Returns the imported root, unprotected.
fn import_into(ctx: &mut SymbolicContext, bdd: &SerializedBdd) -> Result<Ref, SnapshotRejection> {
    if bdd.num_vars() != ctx.manager().num_vars() {
        return Err(SnapshotRejection::Mismatch(format!(
            "snapshot has {} variables, the live context {}",
            bdd.num_vars(),
            ctx.manager().num_vars()
        )));
    }
    if ctx.manager().current_order() != bdd.order() {
        ctx.manager_mut().reorder_to(&bdd.order());
    }
    Ok(ctx.manager_mut().import_subgraph(bdd)[0])
}

/// Deterministic *disk* failure points exercised by the `fault-inject`
/// feature: the store consults a [`DiskFaultSchedule`] at each of these
/// sites, so torn writes, lost renames and bit-rot on read are all
/// reproducible in tests. Kept separate from the kernel's `FaultSite`s so
/// arming a disk schedule never perturbs the seeded kernel-fault mapping
/// that existing tests pin, and so the kernel knows nothing about disks.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultSite {
    /// A snapshot write persists only a prefix of its bytes (a torn write
    /// that still gets renamed into place — the checksum must catch it).
    ShortWrite,
    /// The atomic rename publishing a finished temp file fails; the
    /// snapshot is lost but nothing torn becomes visible.
    FailedRename,
    /// A snapshot read returns bytes with one bit flipped (media rot).
    CorruptRead,
}

#[cfg(feature = "fault-inject")]
impl DiskFaultSite {
    const COUNT: usize = 3;

    fn index(self) -> usize {
        match self {
            DiskFaultSite::ShortWrite => 0,
            DiskFaultSite::FailedRename => 1,
            DiskFaultSite::CorruptRead => 2,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => DiskFaultSite::ShortWrite,
            1 => DiskFaultSite::FailedRename,
            _ => DiskFaultSite::CorruptRead,
        }
    }
}

/// A seeded, deterministic schedule of injected disk failures, consumed by
/// the snapshot store. Each armed site fires on its `n`-th observed event
/// and then disarms, mirroring the kernel `FaultSchedule`'s countdown discipline.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskFaultSchedule {
    countdown: [Option<u32>; DiskFaultSite::COUNT],
}

#[cfg(feature = "fault-inject")]
impl DiskFaultSchedule {
    /// An empty schedule (no faults armed).
    pub fn none() -> Self {
        DiskFaultSchedule::default()
    }

    /// Arms `site` to fail on its `nth` (0-based) observed event.
    pub fn trip(mut self, site: DiskFaultSite, nth: u32) -> Self {
        self.countdown[site.index()] = Some(nth);
        self
    }

    /// Derives a schedule from a seed: one site armed at a small event
    /// index via a splitmix64 draw, so a seed sweep covers every site.
    pub fn from_seed(seed: u64) -> Self {
        let x = super::mix(0, seed);
        let site = DiskFaultSite::from_index((x as usize) % DiskFaultSite::COUNT);
        let nth = ((x >> 8) % 3) as u32;
        DiskFaultSchedule::default().trip(site, nth)
    }

    /// Whether any site is armed.
    pub fn is_armed(&self) -> bool {
        self.countdown.iter().any(|c| c.is_some())
    }

    /// Records one event at `site`; returns `true` when the armed
    /// countdown is consumed and the fault must fire (the site disarms).
    pub fn observe(&mut self, site: DiskFaultSite) -> bool {
        match &mut self.countdown[site.index()] {
            Some(0) => {
                self.countdown[site.index()] = None;
                true
            }
            Some(left) => {
                *left -= 1;
                false
            }
            None => false,
        }
    }
}

/// The durable store under a snapshot directory. All methods degrade:
/// they log nothing themselves and report failures as typed values, so
/// the single-threaded scheduler decides what is worth a log line.
pub struct SnapshotStore {
    dir: PathBuf,
    #[cfg(feature = "fault-inject")]
    faults: DiskFaultSchedule,
    /// Every file read so far, in order.
    #[cfg(test)]
    pub(crate) reads: Vec<PathBuf>,
}

impl SnapshotStore {
    /// Opens (creating if necessary) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            dir,
            #[cfg(feature = "fault-inject")]
            faults: DiskFaultSchedule::none(),
            #[cfg(test)]
            reads: Vec::new(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms a deterministic disk-fault schedule; subsequent writes and
    /// reads trip the scheduled sites.
    #[cfg(feature = "fault-inject")]
    pub fn arm_faults(&mut self, faults: DiskFaultSchedule) {
        self.faults = faults;
    }

    fn warm_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("warm-{key:016x}.pnsnap"))
    }

    fn ckpt_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{key:016x}.pnsnap"))
    }

    /// Atomically replaces `path` with `bytes`: temp file, `fsync`,
    /// rename. A crash at any point leaves the old file or the new file.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("pnsnap.tmp");
        #[allow(unused_mut)]
        let mut payload: &[u8] = bytes;
        #[cfg(feature = "fault-inject")]
        if self.faults.observe(DiskFaultSite::ShortWrite) {
            // A torn write that still gets renamed into place: the
            // checksum catches it on the next read.
            payload = &bytes[..bytes.len() / 2];
        }
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        #[cfg(feature = "fault-inject")]
        if self.faults.observe(DiskFaultSite::FailedRename) {
            let _ = fs::remove_file(&tmp);
            return Err(io::Error::other("injected rename failure"));
        }
        fs::rename(&tmp, path)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        #[cfg(test)]
        self.reads.push(path.to_path_buf());
        #[allow(unused_mut)]
        let mut bytes = fs::read(path)?;
        #[cfg(feature = "fault-inject")]
        if self.faults.observe(DiskFaultSite::CorruptRead) && !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
        }
        Ok(bytes)
    }

    /// Spills a warm pool entry: its context's complete reached set,
    /// tagged with the strategy that produced it. Returns `Ok(false)`
    /// without writing when the context has no complete reached set.
    pub fn save_warm(&mut self, entry: &WarmContext) -> io::Result<bool> {
        let Some(run) = entry.context().memoized_reached() else {
            return Ok(false);
        };
        let bdd = entry.context().manager().export_subgraph(&[run.reached]);
        let record = RawEntry {
            strategy: run.strategy.to_string(),
            num_markings: run.num_markings,
            iterations: run.iterations as u64,
        };
        let bytes = encode(KIND_WARM, entry.key(), entry.spec(), &record, &bdd);
        self.write_atomic(&self.warm_path(entry.key()), &bytes)?;
        Ok(true)
    }

    /// Rehydrates the warm snapshot for `key` into a freshly built
    /// context: imports the reached set (reordering the manager to the
    /// snapshot's order), re-verifies its marking count against the one
    /// recorded at save time, and installs it as the context's memoized
    /// [`reached_set`](SymbolicContext::reached_set). The one result is
    /// returned tagged with the strategy that produced it; the `Vec` is
    /// kept for source compatibility. `None` when no snapshot exists; on
    /// `Err` the offending file has already been deleted and the caller
    /// proceeds cold.
    pub fn restore_warm(
        &mut self,
        key: u64,
        ctx: &mut SymbolicContext,
    ) -> Option<Result<Vec<(FixpointStrategy, ReachabilityResult)>, SnapshotRejection>> {
        if !self.warm_path(key).exists() {
            return None;
        }
        let run = self
            .read_warm(key)
            .and_then(|snapshot| self.import_warm(snapshot, ctx));
        Some(run.map(|run| vec![(run.strategy, run)]))
    }

    /// Reads, checksums and decodes the warm snapshot for `key`, checking
    /// that it is a warm snapshot of that net. On `Err` the file has been
    /// deleted.
    pub(crate) fn read_warm(&mut self, key: u64) -> Result<WarmSnapshot, SnapshotRejection> {
        let path = self.warm_path(key);
        let read = (|| {
            let bytes = self.read_file(&path).map_err(SnapshotRejection::Io)?;
            let payload = decode(&bytes)?;
            if payload.kind != KIND_WARM {
                return Err(SnapshotRejection::Envelope("not a warm snapshot"));
            }
            if payload.net_hash != key {
                return Err(SnapshotRejection::Mismatch(format!(
                    "snapshot is for net {:016x}, expected {key:016x}",
                    payload.net_hash
                )));
            }
            Ok(WarmSnapshot { key, payload })
        })();
        if read.is_err() {
            let _ = fs::remove_file(&path);
        }
        read
    }

    /// Imports a decoded warm snapshot into a freshly built context, as
    /// [`SnapshotStore::restore_warm`] does. On `Err` the file has been
    /// deleted.
    pub(crate) fn import_warm(
        &mut self,
        snapshot: WarmSnapshot,
        ctx: &mut SymbolicContext,
    ) -> Result<ReachabilityResult, SnapshotRejection> {
        let WarmSnapshot { key, payload } = snapshot;
        let imported = (|| {
            let entry = payload.entry;
            let strategy: FixpointStrategy = entry
                .strategy
                .parse()
                .map_err(|err: ParseStrategyError| SnapshotRejection::Mismatch(err.to_string()))?;
            let root = import_into(ctx, &payload.bdd)?;
            let num_markings = ctx.count_markings(root);
            if num_markings != entry.num_markings {
                return Err(SnapshotRejection::Mismatch(format!(
                    "restored {:?} set counts {num_markings} markings, snapshot recorded {}",
                    entry.strategy, entry.num_markings
                )));
            }
            ctx.manager_mut().protect(root);
            let run = ReachabilityResult {
                reached: root,
                num_markings,
                iterations: entry.iterations as usize,
                bdd_nodes: ctx.bdd_size(root),
                peak_live_nodes: ctx.manager().peak_live_nodes(),
                duration: Duration::ZERO,
                truncated: None,
                strategy,
            };
            ctx.adopt_reached(run);
            Ok(run)
        })();
        if imported.is_err() {
            self.discard_warm(key);
        }
        imported
    }

    /// Deletes the warm snapshot for `key`, if any.
    pub fn discard_warm(&mut self, key: u64) {
        let _ = fs::remove_file(self.warm_path(key));
    }

    /// The keys of every warm snapshot file in the store, ascending: the
    /// order startup rehydration reads them in.
    pub(crate) fn warm_keys(&self) -> Vec<u64> {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = dir
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let hex = name.strip_prefix("warm-")?.strip_suffix(".pnsnap")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Checkpoints the partial reached set of a running fixpoint;
    /// `strategy` is recorded for attribution only.
    pub fn save_checkpoint(
        &mut self,
        key: u64,
        spec: &str,
        strategy: FixpointStrategy,
        ctx: &SymbolicContext,
        reached: Ref,
        iterations: usize,
    ) -> io::Result<()> {
        let bdd = ctx.manager().export_subgraph(&[reached]);
        let record = RawEntry {
            strategy: strategy.to_string(),
            num_markings: 0.0,
            iterations: iterations as u64,
        };
        let bytes = encode(KIND_CHECKPOINT, key, spec, &record, &bdd);
        self.write_atomic(&self.ckpt_path(key), &bytes)
    }

    /// Loads the checkpoint for `key` into a live context, returning the
    /// imported (and protected) partial reached set plus the pass count
    /// it had completed. Any strategy may resume from it, whichever one
    /// wrote it: the set is a subset of the fixpoint every strategy
    /// reaches. `None` when no checkpoint exists; on `Err` the file has
    /// been deleted and the traversal restarts from the initial marking.
    pub fn load_checkpoint(
        &mut self,
        key: u64,
        ctx: &mut SymbolicContext,
    ) -> Option<Result<(Ref, usize), SnapshotRejection>> {
        let path = self.ckpt_path(key);
        if !path.exists() {
            return None;
        }
        let result = (|| {
            let bytes = self.read_file(&path).map_err(SnapshotRejection::Io)?;
            let payload = decode(&bytes)?;
            if payload.kind != KIND_CHECKPOINT {
                return Err(SnapshotRejection::Envelope("not a checkpoint"));
            }
            if payload.net_hash != key {
                return Err(SnapshotRejection::Mismatch(format!(
                    "checkpoint is for net {:016x}, expected {key:016x}",
                    payload.net_hash
                )));
            }
            let seed = import_into(ctx, &payload.bdd)?;
            Ok((seed, payload.entry.iterations as usize))
        })();
        match result {
            Ok((seed, _)) => ctx.manager_mut().protect(seed),
            Err(_) => {
                let _ = fs::remove_file(&path);
            }
        }
        Some(result)
    }

    /// Deletes the checkpoint for `key` — called when its fixpoint
    /// completes (the warm snapshot supersedes it).
    pub fn clear_checkpoint(&mut self, key: u64) {
        let _ = fs::remove_file(self.ckpt_path(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_bdd::BddManager;

    /// A small slice and its encoding as a warm snapshot of net `net`
    /// under strategy `bfs`.
    fn sample() -> (SerializedBdd, Vec<u8>) {
        let mut m = BddManager::with_vars(4);
        let v = m.variables();
        let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.nvar(v[2]));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let bdd = m.export_subgraph(&[f]);
        let entry = RawEntry {
            strategy: "bfs".to_string(),
            num_markings: 5.0,
            iterations: 3,
        };
        let bytes = encode(KIND_WARM, 0xfeed_beef_cafe_f00d, "net", &entry, &bdd);
        (bdd, bytes)
    }

    /// Where the variable order of [`sample`] starts: magic, version,
    /// kind, net hash, spec, entry count, strategy, marking and pass count.
    const ORDER_AT: usize = 8 + 4 + 1 + 8 + (4 + 3) + 4 + (4 + 3) + 8 + 8;
    /// Where its node triples start: after the order of four variables.
    const NODES_AT: usize = ORDER_AT + 4 + 4 * 4 + 4;

    /// `bytes` with its checksum dropped, `edit` applied and a valid
    /// checksum appended, so only the edit can be at fault.
    fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = bytes[..bytes.len() - 8].to_vec();
        edit(&mut body);
        let sum = snapshot_checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    fn rejection(bytes: &[u8]) -> SnapshotRejection {
        match decode(bytes) {
            Ok(_) => panic!("a hostile file was accepted"),
            Err(err) => err,
        }
    }

    #[test]
    fn snapshot_checksum_keeps_its_values() {
        assert_eq!(snapshot_checksum(b""), 0x5f57_4997_4103_3812);
        assert_eq!(snapshot_checksum(b"pnsym snapshot"), 0xa9e5_61cc_e72e_205a);
    }

    #[test]
    fn byte_encoding_round_trips_bit_identically() {
        let (bdd, bytes) = sample();
        let payload = decode(&bytes).expect("clean decode");
        assert_eq!(payload.kind, KIND_WARM);
        assert_eq!(payload.net_hash, 0xfeed_beef_cafe_f00d);
        assert_eq!(payload.spec, "net");
        assert_eq!(payload.entry.strategy, "bfs");
        assert_eq!(payload.entry.num_markings, 5.0);
        assert_eq!(payload.entry.iterations, 3);
        assert_eq!(payload.bdd, bdd, "decode restores the exact slice");
        let again = encode(
            payload.kind,
            payload.net_hash,
            &payload.spec,
            &payload.entry,
            &payload.bdd,
        );
        assert_eq!(again, bytes, "re-encoding reproduces the bytes");
    }

    #[test]
    fn truncated_streams_are_rejected_at_every_length() {
        let (_, bytes) = sample();
        for len in 0..bytes.len() {
            assert!(
                matches!(rejection(&bytes[..len]), SnapshotRejection::Envelope(_)),
                "prefix of {len}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_never_panic() {
        let (_, bytes) = sample();
        for i in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    decode(&corrupt).is_err(),
                    "flipping byte {i} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let (_, bytes) = sample();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            rejection(&wrong_magic),
            SnapshotRejection::Envelope("bad magic")
        ));
        // An older or newer version with a valid checksum is refused as
        // unsupported, not misparsed.
        for version in [1u32, 3] {
            let other = resealed(&bytes, |b| {
                b[8..12].copy_from_slice(&version.to_le_bytes());
            });
            assert!(
                matches!(rejection(&other), SnapshotRejection::Version(v) if v == version),
                "version {version}"
            );
        }
    }

    #[test]
    fn structural_invariants_are_revalidated_after_the_checksum() {
        let (_, bytes) = sample();
        // Each file below carries a valid checksum over a malformed body.
        let cases: [(Vec<u8>, &str); 3] = [
            (
                // The first node's low edge names serial 2, a later node.
                resealed(&bytes, |b| {
                    b[NODES_AT + 4..NODES_AT + 8].copy_from_slice(&4u32.to_le_bytes());
                }),
                "edge references a later node",
            ),
            (
                // Level 1 names the variable of level 0 again.
                resealed(&bytes, |b| {
                    b.copy_within(ORDER_AT + 4..ORDER_AT + 8, ORDER_AT + 8)
                }),
                "duplicate variable in order",
            ),
            (resealed(&bytes, |b| b.push(0)), "trailing bytes"),
        ];
        for (file, why) in cases {
            assert!(
                matches!(rejection(&file), SnapshotRejection::Envelope(what) if what == why),
                "{why}"
            );
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn disk_fault_schedule_counts_events_and_disarms() {
        let mut s = DiskFaultSchedule::none().trip(DiskFaultSite::ShortWrite, 2);
        assert!(s.is_armed());
        // Other sites stay inert.
        assert!(!s.observe(DiskFaultSite::FailedRename));
        assert!(!s.observe(DiskFaultSite::ShortWrite));
        assert!(!s.observe(DiskFaultSite::ShortWrite));
        assert!(s.observe(DiskFaultSite::ShortWrite), "fires on the third");
        assert!(!s.observe(DiskFaultSite::ShortWrite), "then disarms");
        assert!(!s.is_armed());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn seeded_disk_schedules_are_deterministic_and_cover_sites() {
        assert_eq!(
            DiskFaultSchedule::from_seed(3),
            DiskFaultSchedule::from_seed(3)
        );
        let mut sites = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let s = DiskFaultSchedule::from_seed(seed);
            assert!(s.is_armed());
            sites.insert(s.countdown.iter().position(|c| c.is_some()).unwrap());
        }
        assert_eq!(sites.len(), DiskFaultSite::COUNT, "seeds reach every site");
    }
}
