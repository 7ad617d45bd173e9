//! The two-tier content-addressed result cache.
//!
//! Lookups hit an in-memory LRU first, then an on-disk store; disk
//! hits are promoted back into the LRU. Entries are keyed by a
//! 128-bit digest of the request's *canonical* encoding plus the
//! espresso effort budget, so a truncated low-effort synthesis can
//! never poison a full-effort lookup (and vice versa): the two live
//! under different keys by construction.
//!
//! The cached value is the encoded [`Response`](crate::protocol::Response)
//! payload — exactly the bytes that go on the wire — which keeps the
//! disk format identical to the protocol and makes warm responses
//! byte-for-byte equal to cold ones.
//!
//! ## Disk layout and bound
//!
//! The disk tier shards entries by digest prefix —
//! `dir/ab/cd/<32-hex-digest>` where `ab`/`cd` are the first two key
//! bytes in hex — keeping directories small at millions of entries.
//!
//! The tier is bounded by *payload bytes*. Each entry belongs to a
//! generation (its insertion order); when a put would exceed the
//! bound, oldest generations are deleted first until the new entry
//! fits. The generation order is rebuilt at open by scanning the
//! shard directories in file-mtime order, so the bound (and the
//! eviction order) survives a restart. An evicted entry is simply a
//! future cache miss — it recomputes, it never errors.
//!
//! ## Entry frame and self-verification
//!
//! Every entry file is *framed*: a 32-byte header in front of the
//! payload lets a reader prove the bytes are the ones the server
//! wrote, under the key the file name claims —
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"ADGC"
//!      4     2  format version (u16 LE, currently 1)
//!      6     2  reserved (zero)
//!      8     8  payload length (u64 LE)
//!     16    16  FNV-1a-128 digest of payload bytes ++ key bytes
//!     32     —  payload (the encoded Response)
//! ```
//!
//! Keying the digest means a file renamed under the wrong digest
//! fails verification even when its payload is intact. On any
//! mismatch — bad magic, unknown version, wrong length, wrong digest,
//! zero-byte or truncated file — the entry is *quarantined* (moved to
//! `dir/quarantine/`, preserved for forensics), counted in
//! [`DiskStore::corrupt`], and reported as a miss so a worker
//! recomputes. Unverified bytes are never served. Pre-frame legacy
//! entries fail the magic check and take the same path: quarantine
//! plus recompute *is* the migration, because cache entries are
//! disposable by construction.
//!
//! Reopen-rescan applies the same discipline to the header of every
//! file it indexes (full digests are checked lazily on read), removes
//! crash-orphaned `*.tmp` files, and skips foreign files — so invalid
//! entries never count toward the byte bound.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::faults::{self, FaultKind, FaultPlan};

/// Magic bytes opening every framed disk-cache entry.
pub const ENTRY_MAGIC: [u8; 4] = *b"ADGC";
/// Current entry frame format version.
pub const ENTRY_VERSION: u16 = 1;
/// Size of the entry frame header.
pub const ENTRY_HEADER_LEN: usize = 32;
/// Name of the quarantine directory under the cache root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// A 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u8; 16]);

/// FNV-1a over `bytes`, then over the 8-byte effort budget, from a
/// caller-chosen basis so two independent streams can be derived.
fn fnv1a64(basis: u64, bytes: &[u8], effort_steps: u64) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = basis;
    for &b in bytes.iter().chain(effort_steps.to_le_bytes().iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl CacheKey {
    /// Digests a canonical request encoding plus the effort budget it
    /// pins. Two FNV-1a-64 streams with distinct bases make the
    /// 128-bit key; collisions would need both 64-bit halves to
    /// collide simultaneously.
    pub fn for_request(canonical: &[u8], effort_steps: u64) -> CacheKey {
        // The standard FNV offset basis, and a second basis derived
        // by perturbing it with the golden-ratio constant so the two
        // halves decorrelate.
        let lo = fnv1a64(0xcbf2_9ce4_8422_2325, canonical, effort_steps);
        let hi = fnv1a64(
            0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15,
            canonical,
            effort_steps,
        );
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&lo.to_le_bytes());
        key[8..].copy_from_slice(&hi.to_le_bytes());
        CacheKey(key)
    }

    /// Lowercase hex form — the on-disk file name.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses the [`hex`](CacheKey::hex) form back into a key (used
    /// when rebuilding the disk index from file names).
    fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        let mut key = [0u8; 16];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(CacheKey(key))
    }
}

/// FNV-1a-128 (two 64-bit streams with decorrelated bases, same
/// construction as [`CacheKey::for_request`]) over the payload bytes
/// followed by the key bytes. Including the key ties the digest to
/// the file name: a payload filed under the wrong digest fails.
fn entry_digest(key: CacheKey, payload: &[u8]) -> [u8; 16] {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hi: u64 = lo ^ 0x9e37_79b9_7f4a_7c15;
    for &b in payload.iter().chain(key.0.iter()) {
        lo = (lo ^ u64::from(b)).wrapping_mul(PRIME);
        hi = (hi ^ u64::from(b)).wrapping_mul(PRIME);
    }
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    out
}

/// Frames `payload` for storage under `key`: header + payload, ready
/// to write as one file.
fn frame_entry(key: CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENTRY_HEADER_LEN + payload.len());
    out.extend_from_slice(&ENTRY_MAGIC);
    out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&entry_digest(key, payload));
    out.extend_from_slice(payload);
    out
}

/// Header-only validation: magic, version, and that `file_len`
/// matches the declared payload length. Returns the payload length.
/// Used by rescan, which must not read every payload at startup.
fn check_entry_header(header: &[u8], file_len: u64) -> Result<u64, &'static str> {
    if header.len() < ENTRY_HEADER_LEN {
        return Err("file shorter than the entry header");
    }
    if header[0..4] != ENTRY_MAGIC {
        return Err("bad entry magic (unframed or foreign file)");
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != ENTRY_VERSION {
        return Err("unknown entry format version");
    }
    let payload_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    if file_len != ENTRY_HEADER_LEN as u64 + payload_len {
        return Err("file length disagrees with declared payload length");
    }
    Ok(payload_len)
}

/// Reads up to one header's worth of bytes from `path` (short files
/// return short buffers — `check_entry_header` rejects them).
fn read_entry_header(path: &Path) -> Result<Vec<u8>, &'static str> {
    let mut f = std::fs::File::open(path).map_err(|_| "unreadable entry")?;
    let mut header = vec![0u8; ENTRY_HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        match f.read(&mut header[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(_) => return Err("unreadable entry"),
        }
    }
    header.truncate(filled);
    Ok(header)
}

/// Full verification of a framed entry read under `key`: header
/// checks plus the payload digest. Returns the payload.
fn verify_entry(key: CacheKey, bytes: &[u8]) -> Result<Vec<u8>, &'static str> {
    check_entry_header(bytes, bytes.len() as u64)?;
    let payload = &bytes[ENTRY_HEADER_LEN..];
    if bytes[16..32] != entry_digest(key, payload) {
        return Err("digest mismatch");
    }
    Ok(payload.to_vec())
}

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory LRU.
    Memory,
    /// The on-disk store (the entry was promoted into the LRU).
    Disk,
}

/// A bounded in-memory LRU of encoded response payloads.
///
/// Recency is a [`VecDeque`] of keys, most recent at the back;
/// a touched key is moved to the back, and inserts over capacity
/// evict from the front. Entry count (not byte size) is the bound —
/// payloads here are small and uniform enough that counting entries
/// keeps the arithmetic exact and deterministic.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<CacheKey, Vec<u8>>,
    order: VecDeque<CacheKey>,
}

impl LruCache {
    /// An empty cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, key: CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<Vec<u8>> {
        if self.map.contains_key(&key) {
            self.touch(key);
        }
        self.map.get(&key).cloned()
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry if over capacity. Returns the evicted key, if any.
    pub fn put(&mut self, key: CacheKey, value: Vec<u8>) -> Option<CacheKey> {
        self.map.insert(key, value);
        self.touch(key);
        if self.map.len() > self.capacity {
            let victim = self
                .order
                .pop_front()
                .expect("over-capacity cache is nonempty");
            self.map.remove(&victim);
            return Some(victim);
        }
        None
    }

    /// Keys from least to most recently used.
    #[cfg(test)]
    fn keys_by_recency(&self) -> Vec<CacheKey> {
        self.order.iter().copied().collect()
    }
}

/// One entry in the disk index, in generation order. `gen` is a
/// monotonically increasing sequence number; an overwrite mints a new
/// generation, leaving the old record stale (detected by comparing
/// `gen` against the live one in `sizes`).
#[derive(Debug, Clone, Copy)]
struct DiskEntry {
    key: CacheKey,
    bytes: u64,
    generation: u64,
}

/// The content-addressed on-disk tier: one file per key at
/// `dir/ab/cd/<hex>` (digest-prefix shards), written atomically
/// (temp file + rename in the same shard directory) so a concurrent
/// reader never sees a torn entry. Bounded by payload bytes with
/// oldest-generation-first eviction; see the module docs.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    cap_bytes: u64,
    /// Live entries: payload bytes and current generation number.
    sizes: HashMap<CacheKey, (u64, u64)>,
    /// Generation order, oldest first. Records whose generation no
    /// longer matches the live one in `sizes` are stale and skipped.
    generations: VecDeque<DiskEntry>,
    next_generation: u64,
    total_bytes: u64,
    evictions: u64,
    /// Entries quarantined after failing verification (read or scan).
    corrupt: u64,
    /// Failed writes (the entry degraded to memory-only caching).
    write_errors: u64,
    /// Optional fault-injection plan; `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir` with a
    /// byte bound (`0` = unbounded) and an optional fault plan
    /// installed at the instrumented sites (see [`crate::faults`];
    /// `None` in production). The generation index is rebuilt from
    /// the files already on disk (ordered by mtime, ties broken by
    /// name, so the eviction order survives a restart).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and scan failures.
    pub fn open(
        dir: &Path,
        cap_bytes: u64,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        let mut store = DiskStore {
            dir: dir.to_path_buf(),
            cap_bytes,
            sizes: HashMap::new(),
            generations: VecDeque::new(),
            next_generation: 0,
            total_bytes: 0,
            evictions: 0,
            corrupt: 0,
            write_errors: 0,
            faults,
        };
        store.rescan()?;
        store.enforce_bound(None);
        Ok(store)
    }

    /// Walks the two shard levels and rebuilds the index, validating
    /// every candidate's frame header. Crash-orphaned `*.tmp` files
    /// are deleted, hex-named files that fail the header check are
    /// quarantined (a crash mid-write, a torn page, a pre-frame
    /// legacy entry), and anything else foreign is left alone — none
    /// of them count toward the byte bound.
    fn rescan(&mut self) -> std::io::Result<()> {
        let mut found: Vec<(std::time::SystemTime, String, CacheKey, u64)> = Vec::new();
        let mut bad: Vec<(CacheKey, PathBuf, &'static str)> = Vec::new();
        for shard1 in std::fs::read_dir(&self.dir)? {
            let shard1 = match shard1 {
                Ok(e) => e.path(),
                Err(_) => continue,
            };
            if !shard1.is_dir() || shard1.file_name().is_some_and(|n| n == QUARANTINE_DIR) {
                continue;
            }
            let Ok(shard2s) = std::fs::read_dir(&shard1) else {
                continue;
            };
            for shard2 in shard2s.filter_map(Result::ok) {
                let shard2 = shard2.path();
                if !shard2.is_dir() {
                    continue;
                }
                let Ok(files) = std::fs::read_dir(&shard2) else {
                    continue;
                };
                for file in files.filter_map(Result::ok) {
                    let name = file.file_name().to_string_lossy().into_owned();
                    let path = file.path();
                    if name.ends_with(".tmp") {
                        // An interrupted put; the rename never
                        // happened, so the entry never existed.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    let Some(key) = CacheKey::from_hex(&name) else {
                        continue; // strangers are not ours to judge
                    };
                    let Ok(meta) = file.metadata() else { continue };
                    match read_entry_header(&path).and_then(|h| check_entry_header(&h, meta.len()))
                    {
                        Ok(payload_len) => {
                            let mtime =
                                meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                            found.push((mtime, name, key, payload_len));
                        }
                        Err(reason) => bad.push((key, path, reason)),
                    }
                }
            }
        }
        for (key, path, reason) in bad {
            self.quarantine(key, &path, reason);
        }
        found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, _, key, bytes) in found {
            let generation = self.next_generation;
            self.next_generation += 1;
            self.sizes.insert(key, (bytes, generation));
            self.generations.push_back(DiskEntry {
                key,
                bytes,
                generation,
            });
            self.total_bytes += bytes;
        }
        Ok(())
    }

    /// Moves a failed entry into `dir/quarantine/` (never deletes it:
    /// a corrupt artifact is evidence) and counts it. The index entry,
    /// if any, is dropped so the bytes stop counting toward the bound.
    fn quarantine(&mut self, key: CacheKey, path: &Path, reason: &str) {
        self.corrupt += 1;
        if let Some((bytes, _)) = self.sizes.remove(&key) {
            self.total_bytes -= bytes;
        }
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = std::fs::create_dir_all(&qdir);
        let dest = qdir.join(key.hex());
        if std::fs::rename(path, &dest).is_err() {
            // Cross-device or permission trouble: removal still
            // guarantees the bytes are never served again.
            let _ = std::fs::remove_file(path);
        }
        eprintln!(
            "adgen-serve: quarantined cache entry {} ({reason})",
            key.hex()
        );
    }

    fn path_for(&self, key: CacheKey) -> PathBuf {
        let hex = key.hex();
        self.dir.join(&hex[0..2]).join(&hex[2..4]).join(hex)
    }

    /// Deletes oldest generations until the byte total fits the
    /// bound. `keep` (the entry just written) is never evicted, so a
    /// single oversized payload still caches.
    fn enforce_bound(&mut self, keep: Option<CacheKey>) {
        if self.cap_bytes == 0 {
            return;
        }
        while self.total_bytes > self.cap_bytes {
            let Some(entry) = self.generations.pop_front() else {
                break;
            };
            // Stale generation records (overwritten or already
            // evicted keys) carry no bytes; skip them.
            if self.sizes.get(&entry.key) != Some(&(entry.bytes, entry.generation)) {
                continue;
            }
            if keep == Some(entry.key) {
                if self.generations.is_empty() {
                    self.generations.push_front(entry);
                    break;
                }
                // Re-queue at the back; everything older goes first.
                self.generations.push_back(entry);
                continue;
            }
            self.sizes.remove(&entry.key);
            self.total_bytes -= entry.bytes;
            self.evictions += 1;
            let _ = std::fs::remove_file(self.path_for(entry.key));
        }
    }

    /// Reads and *verifies* the payload stored under `key`, if
    /// present. An entry that fails verification — torn write, bit
    /// flip, wrong key, legacy format — is quarantined and reported as
    /// a miss; unverified bytes are never returned.
    pub fn get(&mut self, key: CacheKey) -> Option<Vec<u8>> {
        let path = self.path_for(key);
        if let Some(kind) = faults::fire(&self.faults, "disk.get.read") {
            if kind == FaultKind::ReadErr {
                return None; // a transient read error is just a miss
            }
        }
        let bytes = std::fs::read(&path).ok()?;
        match verify_entry(key, &bytes) {
            Ok(payload) => Some(payload),
            Err(reason) => {
                self.quarantine(key, &path, reason);
                None
            }
        }
    }

    /// Stores `value` under `key` atomically (framed — see the module
    /// docs), then evicts oldest generations as needed to honour the
    /// byte bound.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed write removes its temp file,
    /// counts toward [`write_errors`](DiskStore::write_errors), and
    /// leaves no committed partial entry behind.
    pub fn put(&mut self, key: CacheKey, value: &[u8]) -> std::io::Result<()> {
        let path = self.path_for(key);
        let shard = path.parent().expect("sharded path has a parent");
        let tmp = shard.join(format!("{}.tmp", key.hex()));
        if let Err(e) = self.write_entry(shard, &tmp, &path, key, value) {
            self.write_errors += 1;
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }

        let bytes = value.len() as u64;
        let generation = self.next_generation;
        self.next_generation += 1;
        if let Some((old, _)) = self.sizes.insert(key, (bytes, generation)) {
            // Overwrite: the old generation record is now stale.
            self.total_bytes -= old;
        }
        self.total_bytes += bytes;
        self.generations.push_back(DiskEntry {
            key,
            bytes,
            generation,
        });
        self.enforce_bound(Some(key));
        Ok(())
    }

    /// The I/O portion of a put, with the fault-plan sites threaded
    /// through: frame, write to a temp file, sync, rename.
    fn write_entry(
        &self,
        shard: &Path,
        tmp: &Path,
        path: &Path,
        key: CacheKey,
        value: &[u8],
    ) -> std::io::Result<()> {
        let frame = frame_entry(key, value);
        if let Some(kind) = faults::fire(&self.faults, "disk.put.create") {
            return Err(FaultPlan::io_error(kind));
        }
        std::fs::create_dir_all(shard)?;
        let mut f = std::fs::File::create(tmp)?;
        match faults::fire(&self.faults, "disk.put.write") {
            Some(FaultKind::ShortWrite) => {
                // A torn write: half the frame lands, then the
                // "device" gives up. The caller's cleanup removes the
                // temp file; a kill before that leaves it for rescan.
                f.write_all(&frame[..frame.len() / 2])?;
                let _ = f.sync_all();
                return Err(FaultPlan::io_error(FaultKind::ShortWrite));
            }
            Some(kind) => return Err(FaultPlan::io_error(kind)),
            None => {}
        }
        f.write_all(&frame)?;
        if let Some(kind) = faults::fire(&self.faults, "disk.put.sync") {
            return Err(FaultPlan::io_error(kind));
        }
        f.sync_all()?;
        if let Some(kind) = faults::fire(&self.faults, "disk.put.pre_rename") {
            return Err(FaultPlan::io_error(kind));
        }
        std::fs::rename(tmp, path)?;
        // Only `kill` is meaningful here — the entry is already
        // committed, so an error return would be a lie.
        let _ = faults::fire(&self.faults, "disk.put.post_rename");
        Ok(())
    }

    /// Number of committed entries on disk.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the store holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Payload bytes currently held.
    #[cfg(test)]
    fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Entries evicted by the byte bound since open.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries quarantined after failing verification since open.
    pub fn corrupt(&self) -> u64 {
        self.corrupt
    }

    /// Failed entry writes since open.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Keys oldest generation first.
    #[cfg(test)]
    fn keys_by_generation(&self) -> Vec<CacheKey> {
        self.generations
            .iter()
            .filter(|e| self.sizes.get(&e.key) == Some(&(e.bytes, e.generation)))
            .map(|e| e.key)
            .collect()
    }
}

/// The two tiers composed: LRU in front, disk behind, disk hits
/// promoted.
///
/// The LRU sits behind its own lock so that a thread that must never
/// wait on disk I/O can answer memory-tier hits directly through
/// [`memory_tier`](ResultCache::memory_tier) while another thread
/// owns the cache.
#[derive(Debug)]
pub struct ResultCache {
    lru: Arc<Mutex<LruCache>>,
    disk: Option<DiskStore>,
    reported_evictions: u64,
    reported_corrupt: u64,
    reported_write_errors: u64,
    logged_write_error: bool,
}

impl ResultCache {
    /// A cache with `lru_entries` in-memory slots and, when `dir` is
    /// given, a disk tier rooted there bounded to `disk_cap_bytes`
    /// payload bytes (`0` = unbounded).
    ///
    /// # Errors
    ///
    /// Propagates disk-tier open failures.
    pub fn new(
        lru_entries: usize,
        dir: Option<&Path>,
        disk_cap_bytes: u64,
    ) -> std::io::Result<ResultCache> {
        ResultCache::new_with(lru_entries, dir, disk_cap_bytes, None)
    }

    /// [`new`](ResultCache::new) with a fault plan threaded into the
    /// disk tier.
    ///
    /// # Errors
    ///
    /// Propagates disk-tier open failures.
    pub fn new_with(
        lru_entries: usize,
        dir: Option<&Path>,
        disk_cap_bytes: u64,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<ResultCache> {
        Ok(ResultCache {
            lru: Arc::new(Mutex::new(LruCache::new(lru_entries))),
            disk: dir
                .map(|d| DiskStore::open(d, disk_cap_bytes, faults))
                .transpose()?,
            reported_evictions: 0,
            reported_corrupt: 0,
            reported_write_errors: 0,
            logged_write_error: false,
        })
    }

    /// Looks up `key`, reporting which tier answered. A disk hit is
    /// verified and promoted into the LRU so a repeat lookup hits
    /// memory; a corrupt disk entry is quarantined and reported as a
    /// miss.
    pub fn get(&mut self, key: CacheKey) -> Option<(Vec<u8>, Tier)> {
        if let Some(v) = self.memory().get(key) {
            return Some((v, Tier::Memory));
        }
        let v = self.disk.as_mut()?.get(key)?;
        self.memory().put(key, v.clone());
        Some((v, Tier::Disk))
    }

    /// Stores `value` in both tiers. A disk write failure degrades
    /// that entry to memory-only caching — logged once, counted in
    /// [`take_disk_write_errors`](ResultCache::take_disk_write_errors)
    /// — because the cache is an accelerator, not a ledger; the
    /// in-memory tier always takes the entry.
    pub fn put(&mut self, key: CacheKey, value: Vec<u8>) {
        if let Some(disk) = &mut self.disk {
            if let Err(e) = disk.put(key, &value) {
                if !self.logged_write_error {
                    self.logged_write_error = true;
                    eprintln!(
                        "adgen-serve: disk cache write failed ({e}); \
                         affected entries degrade to memory-only caching"
                    );
                }
            }
        }
        self.memory().put(key, value);
    }

    /// A shared handle to the in-memory tier. Lookups through it see
    /// every entry this cache stores or promotes.
    pub fn memory_tier(&self) -> Arc<Mutex<LruCache>> {
        Arc::clone(&self.lru)
    }

    fn memory(&self) -> std::sync::MutexGuard<'_, LruCache> {
        self.lru
            .lock()
            .expect("no thread panics while holding the LRU lock")
    }

    /// Disk-tier evictions since the last call (for stats mirroring).
    pub fn take_disk_evictions(&mut self) -> u64 {
        let total = self.disk.as_ref().map_or(0, DiskStore::evictions);
        let delta = total - self.reported_evictions;
        self.reported_evictions = total;
        delta
    }

    /// Quarantined entries since the last call (for stats mirroring).
    pub fn take_disk_corrupt(&mut self) -> u64 {
        let total = self.disk.as_ref().map_or(0, DiskStore::corrupt);
        let delta = total - self.reported_corrupt;
        self.reported_corrupt = total;
        delta
    }

    /// Failed disk writes since the last call (for stats mirroring).
    pub fn take_disk_write_errors(&mut self) -> u64 {
        let total = self.disk.as_ref().map_or(0, DiskStore::write_errors);
        let delta = total - self.reported_write_errors;
        self.reported_write_errors = total;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> CacheKey {
        CacheKey([n; 16])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adgen-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut lru = LruCache::new(2);
        assert_eq!(lru.put(key(1), vec![1]), None);
        assert_eq!(lru.put(key(2), vec![2]), None);
        // Touch 1 so 2 becomes the eviction victim.
        assert_eq!(lru.get(key(1)), Some(vec![1]));
        assert_eq!(lru.put(key(3), vec![3]), Some(key(2)));
        assert_eq!(lru.get(key(2)), None);
        assert_eq!(lru.get(key(1)), Some(vec![1]));
        assert_eq!(lru.get(key(3)), Some(vec![3]));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_put_refreshes_recency() {
        let mut lru = LruCache::new(2);
        lru.put(key(1), vec![1]);
        lru.put(key(2), vec![2]);
        lru.put(key(1), vec![10]); // refresh, not insert
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.keys_by_recency(), vec![key(2), key(1)]);
        assert_eq!(lru.put(key(3), vec![3]), Some(key(2)));
        assert_eq!(lru.get(key(1)), Some(vec![10]));
    }

    #[test]
    fn effort_budget_separates_cache_keys() {
        let canonical = b"same request bytes";
        let full = CacheKey::for_request(canonical, 0);
        let truncated = CacheKey::for_request(canonical, 1000);
        assert_ne!(
            full, truncated,
            "different effort budgets must never share a key"
        );
        // And the digest is a pure function of its inputs.
        assert_eq!(full, CacheKey::for_request(canonical, 0));
    }

    #[test]
    fn distinct_requests_get_distinct_keys() {
        // A light sanity sweep: no collisions across a few hundred
        // structured inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..256 {
            for effort in [0u64, 50_000_000] {
                let canonical = i.to_le_bytes();
                assert!(
                    seen.insert(CacheKey::for_request(&canonical, effort)),
                    "collision at i={i} effort={effort}"
                );
            }
        }
    }

    #[test]
    fn hex_round_trips() {
        let k = CacheKey::for_request(b"round trip", 7);
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::from_hex("not hex"), None);
        assert_eq!(CacheKey::from_hex(&k.hex()[..30]), None);
    }

    #[test]
    fn disk_store_round_trips_in_sharded_layout() {
        let dir = temp_dir("cache-test");
        let mut store = DiskStore::open(&dir, 0, None).unwrap();
        assert!(store.is_empty());
        let k = CacheKey::for_request(b"payload", 0);
        assert_eq!(store.get(k), None);
        store.put(k, b"the cached response bytes").unwrap();
        assert_eq!(store.get(k), Some(b"the cached response bytes".to_vec()));
        assert_eq!(store.len(), 1);

        // The file lives under its two digest-prefix shard levels.
        let hex = k.hex();
        let expect = dir.join(&hex[0..2]).join(&hex[2..4]).join(&hex);
        assert!(expect.is_file(), "entry at {expect:?}");

        // Overwrite is atomic and idempotent.
        store.put(k, b"v2").unwrap();
        assert_eq!(store.get(k), Some(b"v2".to_vec()));
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_bound_evicts_oldest_generation_first() {
        let dir = temp_dir("cache-bound");
        // Three 4-byte entries fit a 12-byte bound; the fourth evicts
        // the oldest.
        let mut store = DiskStore::open(&dir, 12, None).unwrap();
        for n in 1..=3u8 {
            store.put(key(n), &[n; 4]).unwrap();
        }
        assert_eq!(store.evictions(), 0);
        store.put(key(4), &[4; 4]).unwrap();
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.get(key(1)), None, "oldest generation evicted");
        assert_eq!(store.keys_by_generation(), vec![key(2), key(3), key(4)]);
        assert_eq!(store.total_bytes(), 12);

        // An overwrite refreshes the generation: key 2 moves to the
        // newest slot, so key 3 is next out.
        store.put(key(2), &[22; 4]).unwrap();
        store.put(key(5), &[5; 4]).unwrap();
        assert_eq!(store.get(key(3)), None);
        assert_eq!(store.get(key(2)), Some(vec![22; 4]));

        // A single payload larger than the bound still caches.
        store.put(key(9), &[9; 64]).unwrap();
        assert_eq!(store.get(key(9)), Some(vec![9; 64]));
        assert_eq!(store.keys_by_generation(), vec![key(9)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_index_survives_reopen() {
        let dir = temp_dir("cache-reopen");
        {
            let mut store = DiskStore::open(&dir, 0, None).unwrap();
            for n in 1..=3u8 {
                store.put(key(n), &[n; 4]).unwrap();
            }
        }
        let mut reopened = DiskStore::open(&dir, 12, None).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.total_bytes(), 12);
        for n in 1..=3u8 {
            assert_eq!(reopened.get(key(n)), Some(vec![n; 4]));
        }

        // Reopening under a tighter bound evicts down to it, oldest
        // generation (== oldest mtime) first.
        let shrunk = DiskStore::open(&dir, 8, None).unwrap();
        assert!(shrunk.total_bytes() <= 8);
        assert_eq!(shrunk.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_hits_promote_into_the_lru() {
        let dir = temp_dir("promote-test");
        let mut cache = ResultCache::new(4, Some(&dir), 0).unwrap();
        let k = CacheKey::for_request(b"req", 0);
        cache.put(k, b"resp".to_vec());

        // A fresh cache over the same directory: first hit comes from
        // disk, second from memory.
        let mut cold = ResultCache::new(4, Some(&dir), 0).unwrap();
        assert_eq!(cold.get(k), Some((b"resp".to_vec(), Tier::Disk)));
        assert_eq!(cold.get(k), Some((b"resp".to_vec(), Tier::Memory)));
        assert_eq!(cold.get(CacheKey::for_request(b"other", 0)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_cache_reports_eviction_deltas() {
        let dir = temp_dir("evict-delta");
        let mut cache = ResultCache::new(2, Some(&dir), 8).unwrap();
        assert_eq!(cache.take_disk_evictions(), 0);
        for n in 1..=4u8 {
            cache.put(key(n), vec![n; 4]);
        }
        assert_eq!(cache.take_disk_evictions(), 2);
        assert_eq!(cache.take_disk_evictions(), 0, "delta, not total");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_cache_works_without_a_disk_tier() {
        let mut cache = ResultCache::new(2, None, 0).unwrap();
        let k = CacheKey::for_request(b"req", 0);
        assert_eq!(cache.get(k), None);
        cache.put(k, b"resp".to_vec());
        assert_eq!(cache.get(k), Some((b"resp".to_vec(), Tier::Memory)));
    }

    /// The on-disk path of `key` inside `dir`.
    fn entry_path(dir: &Path, k: CacheKey) -> PathBuf {
        let hex = k.hex();
        dir.join(&hex[0..2]).join(&hex[2..4]).join(hex)
    }

    #[test]
    fn entries_are_framed_on_disk() {
        let dir = temp_dir("frame");
        let mut store = DiskStore::open(&dir, 0, None).unwrap();
        let k = key(7);
        store.put(k, b"payload").unwrap();
        let raw = std::fs::read(entry_path(&dir, k)).unwrap();
        assert_eq!(raw.len(), ENTRY_HEADER_LEN + 7);
        assert_eq!(&raw[0..4], &ENTRY_MAGIC);
        assert_eq!(u16::from_le_bytes([raw[4], raw[5]]), ENTRY_VERSION);
        assert_eq!(u64::from_le_bytes(raw[8..16].try_into().unwrap()), 7);
        assert_eq!(&raw[ENTRY_HEADER_LEN..], b"payload");
        assert_eq!(store.total_bytes(), 7, "bound counts payload, not frame");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_served() {
        let dir = temp_dir("corrupt");
        let mut store = DiskStore::open(&dir, 0, None).unwrap();
        let k = key(3);
        store.put(k, b"precious bytes").unwrap();

        // Flip one payload bit on disk.
        let path = entry_path(&dir, k);
        let mut raw = std::fs::read(&path).unwrap();
        raw[ENTRY_HEADER_LEN] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        assert_eq!(store.get(k), None, "corrupt bytes must never be served");
        assert_eq!(store.corrupt(), 1);
        assert!(!path.exists(), "entry removed from the shard tree");
        assert!(
            dir.join(QUARANTINE_DIR).join(k.hex()).is_file(),
            "entry preserved in quarantine"
        );
        assert_eq!(store.len(), 0, "index entry dropped");
        assert_eq!(store.total_bytes(), 0, "bytes no longer count");

        // The slot is reusable: a recompute re-caches cleanly.
        store.put(k, b"precious bytes").unwrap();
        assert_eq!(store.get(k), Some(b"precious bytes".to_vec()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_filed_under_wrong_key_fails_verification() {
        let dir = temp_dir("wrong-key");
        let mut store = DiskStore::open(&dir, 0, None).unwrap();
        store.put(key(1), b"aaaa").unwrap();
        // Replay a valid entry under a different name, as a confused
        // operator (or an attacker with filesystem access) might.
        let stolen = std::fs::read(entry_path(&dir, key(1))).unwrap();
        let target = entry_path(&dir, key(2));
        std::fs::create_dir_all(target.parent().unwrap()).unwrap();
        std::fs::write(&target, &stolen).unwrap();

        let mut reopened = DiskStore::open(&dir, 0, None).unwrap();
        assert_eq!(
            reopened.get(key(2)),
            None,
            "digest is keyed: a renamed entry must not verify"
        );
        assert_eq!(reopened.get(key(1)), Some(b"aaaa".to_vec()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rescan_quarantines_invalid_and_removes_tmp_files() {
        let dir = temp_dir("rescan-junk");
        {
            let mut store = DiskStore::open(&dir, 0, None).unwrap();
            store.put(key(1), b"good").unwrap();
        }
        // A zero-byte final file (torn crash), a legacy unframed
        // entry, a truncated frame, an orphaned .tmp, and a foreign
        // file — all plausible post-crash debris.
        let zero = entry_path(&dir, key(2));
        std::fs::create_dir_all(zero.parent().unwrap()).unwrap();
        std::fs::write(&zero, b"").unwrap();
        let legacy = entry_path(&dir, key(3));
        std::fs::create_dir_all(legacy.parent().unwrap()).unwrap();
        std::fs::write(&legacy, b"raw pre-frame payload").unwrap();
        let truncated = entry_path(&dir, key(4));
        std::fs::create_dir_all(truncated.parent().unwrap()).unwrap();
        let mut frame = frame_entry(key(4), b"will be cut");
        frame.truncate(frame.len() - 3);
        std::fs::write(&truncated, &frame).unwrap();
        let tmp = entry_path(&dir, key(5)).with_extension("tmp");
        std::fs::create_dir_all(tmp.parent().unwrap()).unwrap();
        std::fs::write(&tmp, b"half a write").unwrap();
        let foreign = dir.join("01").join("02").join("README");
        std::fs::create_dir_all(foreign.parent().unwrap()).unwrap();
        std::fs::write(&foreign, b"not ours").unwrap();

        let mut reopened = DiskStore::open(&dir, 4, None).unwrap();
        assert_eq!(reopened.len(), 1, "only the good entry is indexed");
        assert_eq!(
            reopened.total_bytes(),
            4,
            "junk never counts toward the bound"
        );
        assert_eq!(reopened.corrupt(), 3, "zero-byte + legacy + truncated");
        assert_eq!(reopened.get(key(1)), Some(b"good".to_vec()));
        assert!(!tmp.exists(), "orphaned tmp removed");
        assert!(foreign.exists(), "foreign files left alone");
        for n in [2u8, 3, 4] {
            assert!(
                dir.join(QUARANTINE_DIR).join(key(n).hex()).is_file(),
                "key {n} quarantined"
            );
        }
        // And the quarantine directory itself is not rescanned as a
        // shard: a further reopen sees a clean store.
        let again = DiskStore::open(&dir, 0, None).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.corrupt(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_injection_counts_and_leaves_no_debris() {
        let dir = temp_dir("enospc");
        let plan = Arc::new(FaultPlan::parse("enospc@disk.put.write#2").unwrap());
        let mut store = DiskStore::open(&dir, 0, Some(plan)).unwrap();
        store.put(key(1), b"fits").unwrap();
        let err = store.put(key(2), b"no room").unwrap_err();
        assert!(err.to_string().contains("no space left"));
        assert_eq!(store.write_errors(), 1);
        assert_eq!(store.len(), 1, "failed entry is not indexed");
        assert!(!entry_path(&dir, key(2)).exists());
        assert!(!entry_path(&dir, key(2)).with_extension("tmp").exists());
        // Later writes succeed again — the fault was one-shot.
        store.put(key(3), b"fine").unwrap();
        assert_eq!(store.get(key(3)), Some(b"fine".to_vec()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_injection_cleans_its_torn_tmp() {
        let dir = temp_dir("short");
        let plan = Arc::new(FaultPlan::parse("short@disk.put.write").unwrap());
        let mut store = DiskStore::open(&dir, 0, Some(plan)).unwrap();
        assert!(store.put(key(1), b"will tear").is_err());
        assert_eq!(store.write_errors(), 1);
        assert!(!entry_path(&dir, key(1)).with_extension("tmp").exists());
        assert_eq!(store.get(key(1)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_error_injection_is_a_plain_miss() {
        let dir = temp_dir("readerr");
        let plan = Arc::new(FaultPlan::parse("readerr@disk.get.read").unwrap());
        let mut store = DiskStore::open(&dir, 0, Some(plan)).unwrap();
        store.put(key(1), b"present").unwrap();
        assert_eq!(store.get(key(1)), None, "injected read error is a miss");
        assert_eq!(store.corrupt(), 0, "a transient error is not corruption");
        assert_eq!(store.get(key(1)), Some(b"present".to_vec()), "one-shot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_cache_degrades_to_memory_on_write_failure() {
        let dir = temp_dir("degrade");
        let plan = Arc::new(FaultPlan::parse("enospc@disk.put.write").unwrap());
        let mut cache = ResultCache::new_with(4, Some(&dir), 0, Some(plan)).unwrap();
        let k = CacheKey::for_request(b"req", 0);
        cache.put(k, b"resp".to_vec());
        assert_eq!(
            cache.get(k),
            Some((b"resp".to_vec(), Tier::Memory)),
            "entry still served from memory after the disk write failed"
        );
        assert_eq!(cache.take_disk_write_errors(), 1);
        assert_eq!(cache.take_disk_write_errors(), 0, "delta, not total");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_cache_reports_corruption_deltas() {
        let dir = temp_dir("corrupt-delta");
        let k = CacheKey::for_request(b"req", 0);
        {
            let mut seed = ResultCache::new(4, Some(&dir), 0).unwrap();
            seed.put(k, b"resp".to_vec());
        }
        let path = entry_path(&dir, k);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        std::fs::write(&path, &raw).unwrap();

        let mut cache = ResultCache::new(4, Some(&dir), 0).unwrap();
        assert_eq!(cache.get(k), None, "corrupt disk entry is a miss");
        assert_eq!(cache.take_disk_corrupt(), 1);
        assert_eq!(cache.take_disk_corrupt(), 0, "delta, not total");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hex_names_are_stable_and_filename_safe() {
        let k = CacheKey::for_request(b"abc", 42);
        let h = k.hex();
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h, k.hex(), "hex form is deterministic");
    }
}
