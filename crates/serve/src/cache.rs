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
//! The tier is bounded by *payload bytes*. Both tiers keep their
//! eviction order in one stamp-ordered index: every write stamps its
//! entry newest (the memory tier restamps on a hit as well, the disk
//! tier does not), and when a put would exceed the bound the oldest
//! stamps are deleted first until the new entry fits. The disk order
//! is rebuilt at open by stamping the shard directories' files in
//! mtime order, so the bound (and the eviction order) survives a
//! restart. An evicted entry is simply a future cache miss — it
//! recomputes, it never errors.
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
//! `dir/quarantine/`, preserved for forensics), counted in the
//! server's `cache_corrupt` statistic, and reported as a miss so a worker
//! recomputes. Unverified bytes are never served. Pre-frame legacy
//! entries fail the magic check and take the same path: quarantine
//! plus recompute *is* the migration, because cache entries are
//! disposable by construction.
//!
//! Reopen-rescan applies the same discipline to the header of every
//! file it indexes (full digests are checked lazily on read), removes
//! crash-orphaned `*.tmp` files, and skips foreign files — so invalid
//! entries never count toward the byte bound.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use adgen_exec::Fnv1a128;

use crate::faults::{self, FaultKind, FaultPlan};
use crate::stats::ServeStats;
use crate::unpoisoned;

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

impl CacheKey {
    /// Digests a canonical request encoding plus the effort budget it
    /// pins, with [`Fnv1a128`].
    pub fn for_request(canonical: &[u8], effort_steps: u64) -> CacheKey {
        CacheKey(
            Fnv1a128::default()
                .write(canonical)
                .write(&effort_steps.to_le_bytes())
                .finish(),
        )
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

/// [`Fnv1a128`] over the payload bytes followed by the key bytes.
/// Including the key ties the digest to the file name: a payload filed
/// under the wrong digest fails.
fn entry_digest(key: CacheKey, payload: &[u8]) -> [u8; 16] {
    Fnv1a128::default().write(payload).write(&key.0).finish()
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

/// The one eviction order both tiers keep: each entry carries a
/// stamp from a counter that only grows, and the smallest stamp goes
/// first. Restamping a key moves it to the newest end in O(log n).
#[derive(Debug)]
struct Recency<V> {
    entries: HashMap<CacheKey, (u64, V)>,
    order: BTreeMap<u64, CacheKey>,
    next_stamp: u64,
}

impl<V> Recency<V> {
    fn new() -> Recency<V> {
        Recency {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_stamp: 0,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts `key` with the newest stamp, returning the value it
    /// replaces.
    fn insert(&mut self, key: CacheKey, value: V) -> Option<V> {
        let old = self.remove(key);
        self.entries.insert(key, (self.next_stamp, value));
        self.order.insert(self.next_stamp, key);
        self.next_stamp += 1;
        old
    }

    /// Gives a held `key` the newest stamp and returns its value.
    fn restamp(&mut self, key: CacheKey) -> Option<&V> {
        let (stamp, value) = self.entries.get_mut(&key)?;
        self.order.remove(stamp);
        *stamp = self.next_stamp;
        self.order.insert(self.next_stamp, key);
        self.next_stamp += 1;
        Some(value)
    }

    fn remove(&mut self, key: CacheKey) -> Option<V> {
        let (stamp, value) = self.entries.remove(&key)?;
        self.order.remove(&stamp);
        Some(value)
    }

    /// The key with the smallest stamp.
    fn oldest(&self) -> Option<CacheKey> {
        self.order.values().next().copied()
    }

    /// Keys oldest stamp first.
    #[cfg(test)]
    fn keys(&self) -> Vec<CacheKey> {
        self.order.values().copied().collect()
    }
}

/// A bounded in-memory LRU of encoded response payloads.
///
/// A hit restamps its key; an insert over capacity evicts the oldest
/// stamp. Entry count (not byte size) is the bound — payloads here
/// are small and uniform enough that counting entries keeps the
/// arithmetic exact and deterministic.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    entries: Recency<Vec<u8>>,
}

impl LruCache {
    /// An empty cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity: capacity.max(1),
            entries: Recency::new(),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<Vec<u8>> {
        self.entries.restamp(key).cloned()
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry if over capacity. Returns the evicted key, if any.
    pub fn put(&mut self, key: CacheKey, value: Vec<u8>) -> Option<CacheKey> {
        self.entries.insert(key, value);
        if self.len() <= self.capacity {
            return None;
        }
        let victim = self.entries.oldest()?;
        self.entries.remove(victim);
        Some(victim)
    }
}

/// The content-addressed on-disk tier: one file per key at
/// `dir/ab/cd/<hex>` (digest-prefix shards), written atomically
/// (temp file + rename in the same shard directory) so a concurrent
/// reader never sees a torn entry. Bounded by payload bytes with
/// oldest-first eviction; see the module docs. Evictions,
/// quarantines and failed writes are counted where they happen, in
/// the [`ServeStats`] the store is opened with.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    cap_bytes: u64,
    /// Committed entries and their payload bytes, stamped in write
    /// order. A `get` does not restamp.
    index: Recency<u64>,
    total_bytes: u64,
    /// Optional fault-injection plan; `None` in production.
    faults: Option<Arc<FaultPlan>>,
    /// Where evictions, quarantines and failed writes are counted.
    stats: Arc<ServeStats>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir` with a
    /// byte bound (`0` = unbounded) and an optional fault plan
    /// installed at the instrumented sites (see [`crate::faults`];
    /// `None` in production), counting into `stats`. The index is
    /// rebuilt from the files already on disk, stamped in mtime order
    /// with ties broken by name, so the eviction order survives a
    /// restart.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and scan failures.
    pub fn open(
        dir: &Path,
        cap_bytes: u64,
        faults: Option<Arc<FaultPlan>>,
        stats: Arc<ServeStats>,
    ) -> std::io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        let mut store = DiskStore {
            dir: dir.to_path_buf(),
            cap_bytes,
            index: Recency::new(),
            total_bytes: 0,
            faults,
            stats,
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
            self.index.insert(key, bytes);
            self.total_bytes += bytes;
        }
        Ok(())
    }

    /// Moves a failed entry into `dir/quarantine/` (never deletes it:
    /// a corrupt artifact is evidence) and counts it. The index entry,
    /// if any, is dropped so the bytes stop counting toward the bound.
    fn quarantine(&mut self, key: CacheKey, path: &Path, reason: &str) {
        self.stats.cache_corrupt.fetch_add(1, Ordering::Relaxed);
        if let Some(bytes) = self.index.remove(key) {
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

    /// Deletes the oldest entries until the byte total fits the
    /// bound. `keep` (the entry just written, so the newest) is never
    /// evicted, so a single oversized payload still caches.
    fn enforce_bound(&mut self, keep: Option<CacheKey>) {
        if self.cap_bytes == 0 {
            return;
        }
        while self.total_bytes > self.cap_bytes {
            let Some(victim) = self.index.oldest().filter(|&k| Some(k) != keep) else {
                break;
            };
            self.total_bytes -= self.index.remove(victim).unwrap_or(0);
            self.stats.disk_evictions.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(self.path_for(victim));
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
    /// docs), then evicts the oldest entries as needed to honour the
    /// byte bound.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed write removes its temp file,
    /// counts in the `disk_write_errors` statistic, and leaves no
    /// committed partial entry behind.
    pub fn put(&mut self, key: CacheKey, value: &[u8]) -> std::io::Result<()> {
        let path = self.path_for(key);
        let shard = path.parent().expect("sharded path has a parent");
        let tmp = shard.join(format!("{}.tmp", key.hex()));
        if let Err(e) = self.write_entry(shard, &tmp, &path, key, value) {
            self.stats.disk_write_errors.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }

        let bytes = value.len() as u64;
        self.total_bytes += bytes;
        self.total_bytes -= self.index.insert(key, bytes).unwrap_or(0);
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
        self.index.len()
    }

    /// Whether the store holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes currently held.
    #[cfg(test)]
    fn total_bytes(&self) -> u64 {
        self.total_bytes
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
    logged_write_error: bool,
}

impl ResultCache {
    /// A cache with `lru_entries` in-memory slots and, when `dir` is
    /// given, a disk tier rooted there bounded to `disk_cap_bytes`
    /// payload bytes (`0` = unbounded). The disk tier counts into
    /// statistics of its own that nothing reads.
    ///
    /// # Errors
    ///
    /// Propagates disk-tier open failures.
    pub fn new(
        lru_entries: usize,
        dir: Option<&Path>,
        disk_cap_bytes: u64,
    ) -> std::io::Result<ResultCache> {
        ResultCache::new_with(lru_entries, dir, disk_cap_bytes, None, Arc::default())
    }

    /// [`new`](ResultCache::new) with a fault plan threaded into the
    /// disk tier, which counts into `stats`.
    ///
    /// # Errors
    ///
    /// Propagates disk-tier open failures.
    pub fn new_with(
        lru_entries: usize,
        dir: Option<&Path>,
        disk_cap_bytes: u64,
        faults: Option<Arc<FaultPlan>>,
        stats: Arc<ServeStats>,
    ) -> std::io::Result<ResultCache> {
        Ok(ResultCache {
            lru: Arc::new(Mutex::new(LruCache::new(lru_entries))),
            disk: dir
                .map(|d| DiskStore::open(d, disk_cap_bytes, faults, stats))
                .transpose()?,
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
    /// that entry to memory-only caching — logged once, counted by
    /// the disk tier in the `disk_write_errors` statistic — because
    /// the cache is an accelerator, not a ledger; the in-memory tier
    /// always takes the entry.
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
        unpoisoned(self.lru.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_of(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn key(n: u8) -> CacheKey {
        CacheKey([n; 16])
    }

    fn count(ctr: &std::sync::atomic::AtomicU64) -> u64 {
        ctr.load(Ordering::Relaxed)
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
        assert_eq!(lru.entries.keys(), vec![key(2), key(1)]);
        assert_eq!(lru.put(key(3), vec![3]), Some(key(2)));
        assert_eq!(lru.get(key(1)), Some(vec![10]));
    }

    #[test]
    fn key_and_entry_digest_bytes_are_pinned() {
        // Disk entries outlive the process: a key or digest that
        // changed would orphan every cached file.
        let key = CacheKey::for_request(b"adgen explore 4x4", 50_000_000);
        assert_eq!(key.hex(), "d10cf8e838696902968a7ac22ab74e55");
        let frame = frame_entry(key, b"payload");
        assert_eq!(
            hex_of(&frame[16..ENTRY_HEADER_LEN]),
            "06f28a94ffcae007352a8fd79e497bd0"
        );
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
        let mut store = DiskStore::open(&dir, 0, None, Arc::default()).unwrap();
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
        let stats = Arc::new(ServeStats::default());
        let mut store = DiskStore::open(&dir, 12, None, Arc::clone(&stats)).unwrap();
        for n in 1..=3u8 {
            store.put(key(n), &[n; 4]).unwrap();
        }
        assert_eq!(count(&stats.disk_evictions), 0);
        store.put(key(4), &[4; 4]).unwrap();
        assert_eq!(count(&stats.disk_evictions), 1);
        assert_eq!(store.get(key(1)), None, "oldest generation evicted");
        assert_eq!(store.index.keys(), vec![key(2), key(3), key(4)]);
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
        assert_eq!(store.index.keys(), vec![key(9)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_index_survives_reopen() {
        let dir = temp_dir("cache-reopen");
        {
            let mut store = DiskStore::open(&dir, 0, None, Arc::default()).unwrap();
            for n in 1..=3u8 {
                store.put(key(n), &[n; 4]).unwrap();
            }
        }
        let mut reopened = DiskStore::open(&dir, 12, None, Arc::default()).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.total_bytes(), 12);
        for n in 1..=3u8 {
            assert_eq!(reopened.get(key(n)), Some(vec![n; 4]));
        }

        // Reopening under a tighter bound evicts down to it, oldest
        // generation (== oldest mtime) first.
        let shrunk = DiskStore::open(&dir, 8, None, Arc::default()).unwrap();
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
    fn result_cache_counts_disk_evictions_once() {
        let dir = temp_dir("evict-count");
        let stats = Arc::new(ServeStats::default());
        let mut cache = ResultCache::new_with(2, Some(&dir), 8, None, Arc::clone(&stats)).unwrap();
        assert_eq!(count(&stats.disk_evictions), 0);
        for n in 1..=4u8 {
            cache.put(key(n), vec![n; 4]);
        }
        assert_eq!(count(&stats.disk_evictions), 2);
        // Accesses that evict nothing leave the count alone: each
        // eviction is counted once, when it happens.
        assert!(cache.get(key(4)).is_some());
        cache.put(key(4), vec![4; 4]);
        assert_eq!(count(&stats.disk_evictions), 2, "counted once");
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
        let mut store = DiskStore::open(&dir, 0, None, Arc::default()).unwrap();
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
        let stats = Arc::new(ServeStats::default());
        let mut store = DiskStore::open(&dir, 0, None, Arc::clone(&stats)).unwrap();
        let k = key(3);
        store.put(k, b"precious bytes").unwrap();

        // Flip one payload bit on disk.
        let path = entry_path(&dir, k);
        let mut raw = std::fs::read(&path).unwrap();
        raw[ENTRY_HEADER_LEN] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        assert_eq!(store.get(k), None, "corrupt bytes must never be served");
        assert_eq!(count(&stats.cache_corrupt), 1);
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
        let mut store = DiskStore::open(&dir, 0, None, Arc::default()).unwrap();
        store.put(key(1), b"aaaa").unwrap();
        // Replay a valid entry under a different name, as a confused
        // operator (or an attacker with filesystem access) might.
        let stolen = std::fs::read(entry_path(&dir, key(1))).unwrap();
        let target = entry_path(&dir, key(2));
        std::fs::create_dir_all(target.parent().unwrap()).unwrap();
        std::fs::write(&target, &stolen).unwrap();

        let mut reopened = DiskStore::open(&dir, 0, None, Arc::default()).unwrap();
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
            let mut store = DiskStore::open(&dir, 0, None, Arc::default()).unwrap();
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

        let stats = Arc::new(ServeStats::default());
        let mut reopened = DiskStore::open(&dir, 4, None, Arc::clone(&stats)).unwrap();
        assert_eq!(reopened.len(), 1, "only the good entry is indexed");
        assert_eq!(
            reopened.total_bytes(),
            4,
            "junk never counts toward the bound"
        );
        assert_eq!(
            count(&stats.cache_corrupt),
            3,
            "zero-byte + legacy + truncated"
        );
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
        let stats = Arc::new(ServeStats::default());
        let again = DiskStore::open(&dir, 0, None, Arc::clone(&stats)).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(count(&stats.cache_corrupt), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_injection_counts_and_leaves_no_debris() {
        let dir = temp_dir("enospc");
        let stats = Arc::new(ServeStats::default());
        let plan = Arc::new(FaultPlan::parse("enospc@disk.put.write#2").unwrap());
        let mut store = DiskStore::open(&dir, 0, Some(plan), Arc::clone(&stats)).unwrap();
        store.put(key(1), b"fits").unwrap();
        let err = store.put(key(2), b"no room").unwrap_err();
        assert!(err.to_string().contains("no space left"));
        assert_eq!(count(&stats.disk_write_errors), 1);
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
        let stats = Arc::new(ServeStats::default());
        let plan = Arc::new(FaultPlan::parse("short@disk.put.write").unwrap());
        let mut store = DiskStore::open(&dir, 0, Some(plan), Arc::clone(&stats)).unwrap();
        assert!(store.put(key(1), b"will tear").is_err());
        assert_eq!(count(&stats.disk_write_errors), 1);
        assert!(!entry_path(&dir, key(1)).with_extension("tmp").exists());
        assert_eq!(store.get(key(1)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_error_injection_is_a_plain_miss() {
        let dir = temp_dir("readerr");
        let stats = Arc::new(ServeStats::default());
        let plan = Arc::new(FaultPlan::parse("readerr@disk.get.read").unwrap());
        let mut store = DiskStore::open(&dir, 0, Some(plan), Arc::clone(&stats)).unwrap();
        store.put(key(1), b"present").unwrap();
        assert_eq!(store.get(key(1)), None, "injected read error is a miss");
        assert_eq!(
            count(&stats.cache_corrupt),
            0,
            "a transient error is not corruption"
        );
        assert_eq!(store.get(key(1)), Some(b"present".to_vec()), "one-shot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_cache_degrades_to_memory_on_write_failure() {
        let dir = temp_dir("degrade");
        let plan = Arc::new(FaultPlan::parse("enospc@disk.put.write").unwrap());
        let stats = Arc::new(ServeStats::default());
        let mut cache =
            ResultCache::new_with(4, Some(&dir), 0, Some(plan), Arc::clone(&stats)).unwrap();
        let k = CacheKey::for_request(b"req", 0);
        cache.put(k, b"resp".to_vec());
        assert_eq!(
            cache.get(k),
            Some((b"resp".to_vec(), Tier::Memory)),
            "entry still served from memory after the disk write failed"
        );
        assert_eq!(count(&stats.disk_write_errors), 1);
        assert!(cache.get(k).is_some());
        assert_eq!(count(&stats.disk_write_errors), 1, "counted once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_cache_counts_quarantines_once() {
        let dir = temp_dir("corrupt-count");
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

        let stats = Arc::new(ServeStats::default());
        let mut cache = ResultCache::new_with(4, Some(&dir), 0, None, Arc::clone(&stats)).unwrap();
        assert_eq!(cache.get(k), None, "corrupt disk entry is a miss");
        assert_eq!(count(&stats.cache_corrupt), 1);
        // The quarantined entry is gone: a second lookup is a plain
        // miss and counts nothing.
        assert_eq!(cache.get(k), None);
        assert_eq!(count(&stats.cache_corrupt), 1, "counted once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The naive eviction-order reference: entries in a plain `Vec`,
    /// oldest stamp first, found by linear search.
    type Naive = Vec<(CacheKey, Vec<u8>)>;

    fn naive_keys(model: &Naive) -> Vec<CacheKey> {
        model.iter().map(|e| e.0).collect()
    }

    /// Removes `k` from `model` and appends it with `v` (the newest
    /// stamp).
    fn naive_restamp(model: &mut Naive, k: CacheKey, v: Vec<u8>) {
        model.retain(|e| e.0 != k);
        model.push((k, v));
    }

    fn naive_bytes(model: &Naive) -> u64 {
        model.iter().map(|e| e.1.len() as u64).sum()
    }

    /// The disk bound on the model: drop the oldest entry while the
    /// bytes exceed `cap` (`0` = unbounded), never `keep`. Returns how
    /// many entries went.
    fn naive_bound(model: &mut Naive, cap: u64, keep: Option<CacheKey>) -> u64 {
        let mut evicted = 0;
        while cap > 0
            && naive_bytes(model) > cap
            && model.first().is_some_and(|e| Some(e.0) != keep)
        {
            model.remove(0);
            evicted += 1;
        }
        evicted
    }

    #[test]
    fn lru_matches_a_naive_recency_model() {
        for capacity in 1..=8usize {
            let mut rng = adgen_exec::Prng::new(2026 + capacity as u64);
            let mut lru = LruCache::new(capacity);
            let mut model = Naive::new();
            for step in 0..400u32 {
                let op = rng.next_range(3);
                let k = if op == 2 && !model.is_empty() {
                    model[rng.next_range(model.len() as u64) as usize].0 // re-put
                } else {
                    key(rng.next_range(12) as u8)
                };
                if op == 0 {
                    let want = model.iter().find(|e| e.0 == k).map(|e| e.1.clone());
                    if let Some(v) = &want {
                        naive_restamp(&mut model, k, v.clone());
                    }
                    assert_eq!(lru.get(k), want, "get, capacity {capacity} step {step}");
                } else {
                    let v = step.to_le_bytes().to_vec();
                    naive_restamp(&mut model, k, v.clone());
                    let victim = (model.len() > capacity).then(|| model.remove(0).0);
                    assert_eq!(
                        lru.put(k, v),
                        victim,
                        "put, capacity {capacity} step {step}"
                    );
                }
                assert_eq!(lru.len(), model.len());
                assert_eq!(lru.entries.keys(), naive_keys(&model));
            }
        }
    }

    #[test]
    fn disk_store_matches_a_naive_generation_model() {
        for (cap, reopen_cap) in [(0u64, 6u64), (8, 4), (12, 6)] {
            let dir = temp_dir(&format!("naive-{cap}"));
            let stats = Arc::new(ServeStats::default());
            let mut store = DiskStore::open(&dir, cap, None, Arc::clone(&stats)).unwrap();
            let mut rng = adgen_exec::Prng::new(cap + 1);
            let mut model = Naive::new();
            let mut evictions = 0;
            let mut corrupt = 0;
            let oversized_at = rng.next_range(60);
            for step in 0..60u64 {
                let op = rng.next_range(6);
                let k = if (op == 2 || op == 5) && !model.is_empty() {
                    model[rng.next_range(model.len() as u64) as usize].0 // overwrite
                } else {
                    key(rng.next_in(1, 7) as u8)
                };
                if op == 0 {
                    // A disk get verifies but does not reorder.
                    let want = model.iter().find(|e| e.0 == k).map(|e| e.1.clone());
                    assert_eq!(store.get(k), want, "get, cap {cap} step {step}");
                } else if op == 5 && !model.is_empty() {
                    // A flipped payload bit: quarantined on the next get.
                    let path = entry_path(&dir, k);
                    let mut raw = std::fs::read(&path).unwrap();
                    raw[ENTRY_HEADER_LEN] ^= 1;
                    std::fs::write(&path, &raw).unwrap();
                    assert_eq!(store.get(k), None, "quarantine, cap {cap} step {step}");
                    model.retain(|e| e.0 != k);
                    corrupt += 1;
                } else {
                    let len = if step == oversized_at {
                        20
                    } else {
                        rng.next_in(1, 6) as usize
                    };
                    let v = vec![step as u8; len];
                    store.put(k, &v).unwrap();
                    naive_restamp(&mut model, k, v);
                    evictions += naive_bound(&mut model, cap, Some(k));
                }
                assert_eq!(
                    store.index.keys(),
                    naive_keys(&model),
                    "cap {cap} step {step}"
                );
                assert_eq!(store.len(), model.len());
                assert_eq!(store.total_bytes(), naive_bytes(&model));
                assert_eq!(count(&stats.disk_evictions), evictions);
                assert_eq!(count(&stats.cache_corrupt), corrupt);
            }
            drop(store);

            // Reopen under a tighter bound: rescan stamps files in
            // (mtime, name) order, then evicts oldest first.
            let mtime = |k: CacheKey| {
                std::fs::metadata(entry_path(&dir, k))
                    .and_then(|m| m.modified())
                    .unwrap()
            };
            model.sort_by_key(|e| (mtime(e.0), e.0.hex()));
            let indexed: Vec<CacheKey> = model.iter().map(|e| e.0).collect();
            let evictions = naive_bound(&mut model, reopen_cap, None);
            let stats = Arc::new(ServeStats::default());
            let mut reopened = DiskStore::open(&dir, reopen_cap, None, Arc::clone(&stats)).unwrap();
            assert_eq!(
                reopened.index.keys(),
                naive_keys(&model),
                "reopen, cap {cap}"
            );
            assert_eq!(reopened.len(), model.len());
            assert_eq!(reopened.total_bytes(), naive_bytes(&model));
            assert_eq!(count(&stats.disk_evictions), evictions);
            for k in indexed {
                let want = model.iter().find(|e| e.0 == k).map(|e| e.1.clone());
                assert_eq!(reopened.get(k), want, "reopened get, cap {cap}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
