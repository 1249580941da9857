//! In-memory files and per-node file stores.

use gridsim::time::SimTime;
use std::collections::BTreeMap;
use std::rc::Rc;

/// File contents: real bytes for small files, size+checksum for bulk data.
#[derive(Clone, Debug, PartialEq)]
pub enum FileData {
    /// Actual content (executables, stdio, logs), shared: reading a whole
    /// file clones the `Rc`, not the bytes.
    Inline(Rc<[u8]>),
    /// Simulated bulk data: only its size and a content fingerprint move
    /// through the system; the transfer model charges for the full size.
    Bulk {
        /// Size in bytes.
        len: u64,
        /// Content fingerprint (so corruption/mismatch is detectable).
        checksum: u64,
    },
}

/// Serializable form of [`FileData`] for stable storage (real GASS files
/// live on disk and survive machine restarts).
#[derive(Clone, Debug, PartialEq)]
pub enum FileDisk {
    /// Real bytes.
    Inline(Vec<u8>),
    /// Synthetic bulk data.
    Bulk {
        /// Size in bytes.
        len: u64,
        /// Fingerprint.
        checksum: u64,
    },
}

gridsim::codec! { enum FileDisk { 0 => Inline(bytes), 1 => Bulk { len, checksum } } }

impl FileData {
    /// Convert to the stable-storage form.
    pub fn to_disk(&self) -> FileDisk {
        match self {
            FileData::Inline(b) => FileDisk::Inline(b.to_vec()),
            FileData::Bulk { len, checksum } => FileDisk::Bulk {
                len: *len,
                checksum: *checksum,
            },
        }
    }

    /// Restore from the stable-storage form.
    pub fn from_disk(d: FileDisk) -> FileData {
        match d {
            FileDisk::Inline(v) => FileData::Inline(v.into()),
            FileDisk::Bulk { len, checksum } => FileData::Bulk { len, checksum },
        }
    }

    /// Inline data from a byte string.
    pub fn inline(data: impl AsRef<[u8]>) -> FileData {
        FileData::Inline(data.as_ref().into())
    }

    /// Synthetic bulk data of `len` bytes with a fingerprint derived from
    /// `tag`.
    pub fn bulk(len: u64, tag: u64) -> FileData {
        FileData::Bulk {
            len,
            checksum: tag ^ len.rotate_left(17),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            FileData::Inline(b) => b.len() as u64,
            FileData::Bulk { len, .. } => *len,
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Content fingerprint.
    pub fn checksum(&self) -> u64 {
        match self {
            FileData::Inline(b) => gsi::keys::digest(b),
            FileData::Bulk { checksum, .. } => *checksum,
        }
    }

    /// The byte range `[offset, offset+limit)` (clamped). Bulk data yields
    /// bulk data; a range covering a whole inline file shares its bytes,
    /// any other range copies them.
    pub fn slice(&self, offset: u64, limit: u64) -> FileData {
        match self {
            FileData::Inline(b) => {
                let start = (offset as usize).min(b.len());
                let end = start.saturating_add(limit as usize).min(b.len());
                if end - start == b.len() {
                    return self.clone();
                }
                FileData::Inline(b[start..end].into())
            }
            FileData::Bulk { len, checksum } => {
                let start = offset.min(*len);
                let n = limit.min(len - start);
                FileData::Bulk {
                    len: n,
                    checksum: checksum ^ start.rotate_left(7),
                }
            }
        }
    }

    /// Concatenate (append) `other` to a clone of `self`.
    pub fn concat(&self, other: &FileData) -> FileData {
        match (self, other) {
            (FileData::Inline(a), FileData::Inline(b)) => {
                FileData::Inline([&a[..], &b[..]].concat().into())
            }
            _ => FileData::Bulk {
                len: self.len() + other.len(),
                checksum: self.checksum().rotate_left(1) ^ other.checksum(),
            },
        }
    }
}

/// One stored file.
#[derive(Clone, Debug, PartialEq)]
pub struct File {
    /// Contents.
    pub data: FileData,
    /// Last modification time.
    pub modified: SimTime,
}

/// A node's filesystem. Paths are plain strings (`/home/jane/sim.exe`).
#[derive(Clone, Debug, Default)]
pub struct FileStore {
    files: BTreeMap<String, File>,
}

impl FileStore {
    /// Empty store.
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Create or replace a file.
    pub fn write(&mut self, path: &str, data: FileData, now: SimTime) {
        self.files.insert(
            path.to_string(),
            File {
                data,
                modified: now,
            },
        );
    }

    /// Append to a file, creating it if needed (G-Cat and stdout streaming).
    pub fn append(&mut self, path: &str, data: FileData, now: SimTime) {
        match self.files.get_mut(path) {
            Some(f) => {
                f.data = f.data.concat(&data);
                f.modified = now;
            }
            None => self.write(path, data, now),
        }
    }

    /// Write `data` at `offset`, extending the file. Idempotent for
    /// re-sent chunks: if the region `[offset, offset+len)` is already
    /// covered, nothing changes; a partially covered chunk contributes
    /// only its uncovered tail. Writing past the current end (a gap)
    /// extends the file to `offset` first with zero-fill accounting.
    pub fn write_at(&mut self, path: &str, offset: u64, data: FileData, now: SimTime) {
        let current = self.size(path).unwrap_or(0);
        let end = offset + data.len();
        if end <= current {
            return; // fully covered: idempotent no-op
        }
        if offset > current {
            // Gap: extend with synthetic fill, then append the chunk.
            let gap = FileData::bulk(offset - current, 0);
            self.append(path, gap, now);
            self.append(path, data, now);
            return;
        }
        // Partial overlap: append only the uncovered tail.
        let skip = current - offset;
        let tail = data.slice(skip, u64::MAX);
        self.append(path, tail, now);
    }

    /// Look up a file.
    pub fn read(&self, path: &str) -> Option<&File> {
        self.files.get(path)
    }

    /// Size of a file, if present.
    pub fn size(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|f| f.data.len())
    }

    /// Delete a file; returns whether it existed.
    pub fn delete(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// All paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.data.len()).sum()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files are stored.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn write_read_delete() {
        let mut fs = FileStore::new();
        fs.write("/bin/sim", FileData::inline("ELF..."), t0());
        assert_eq!(fs.size("/bin/sim"), Some(6));
        assert!(fs.delete("/bin/sim"));
        assert!(!fs.delete("/bin/sim"));
        assert!(fs.read("/bin/sim").is_none());
    }

    #[test]
    fn append_grows_inline_files() {
        let mut fs = FileStore::new();
        fs.append("/out", FileData::inline("hello "), t0());
        fs.append("/out", FileData::inline("grid"), t0());
        let f = fs.read("/out").unwrap();
        assert_eq!(f.data, FileData::inline("hello grid"));
    }

    #[test]
    fn append_bulk_tracks_length() {
        let mut fs = FileStore::new();
        fs.append("/events", FileData::bulk(1_000_000, 1), t0());
        fs.append("/events", FileData::bulk(2_000_000, 2), t0());
        assert_eq!(fs.size("/events"), Some(3_000_000));
    }

    #[test]
    fn slice_semantics() {
        let d = FileData::inline("0123456789");
        assert_eq!(d.slice(2, 3), FileData::inline("234"));
        assert_eq!(d.slice(8, 10), FileData::inline("89"));
        assert_eq!(d.slice(20, 5), FileData::inline(""));
        let b = FileData::bulk(100, 7);
        assert_eq!(b.slice(90, 50).len(), 10);
        assert_eq!(b.slice(0, 100).len(), 100);
    }

    #[test]
    fn checksums_differ_on_content() {
        assert_ne!(
            FileData::inline("a").checksum(),
            FileData::inline("b").checksum()
        );
        assert_ne!(
            FileData::bulk(10, 1).checksum(),
            FileData::bulk(10, 2).checksum()
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A stored GASS file of each kind, byte for byte as `e025d0e` wrote it.
    #[test]
    fn file_disk_bytes_are_pinned() {
        use gridsim::codec::{from_bytes, to_bytes};
        let inline = FileData::inline("ELF\x7f").to_disk();
        let bulk = FileData::bulk(1_000_000, 3).to_disk();
        for (disk, pinned) in [
            (inline, "000000000400000000000000454c467f"),
            (bulk, "0100000040420f0000000000030080841e000000"),
        ] {
            let bytes = to_bytes(&disk);
            assert_eq!(hex(&bytes), pinned);
            assert_eq!(from_bytes::<FileDisk>(&bytes).unwrap(), disk);
        }
    }

    #[test]
    fn unknown_file_disk_indices_are_refused() {
        use gridsim::codec::from_bytes;
        for index in [2u32, u32::MAX] {
            let mut bytes = index.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 16]);
            assert!(from_bytes::<FileDisk>(&bytes).is_err());
        }
    }

    #[test]
    fn list_by_prefix() {
        let mut fs = FileStore::new();
        fs.write("/data/e1", FileData::bulk(1, 0), t0());
        fs.write("/data/e2", FileData::bulk(1, 0), t0());
        fs.write("/other", FileData::bulk(1, 0), t0());
        assert_eq!(fs.list("/data/"), vec!["/data/e1", "/data/e2"]);
        assert_eq!(fs.total_bytes(), 3);
        assert_eq!(fs.len(), 3);
    }
}
