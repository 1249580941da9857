//! The goldens table and scratch dirs: the half of `tests/support` that
//! runs no binary of the root package, so the bench crate's tests include
//! it too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every `(key, value)` row of `tests/goldens.txt`, in file order. The
/// table is compiled in, so editing a row rebuilds its readers.
pub fn goldens() -> impl Iterator<Item = (&'static str, &'static str)> {
    include_str!("../goldens.txt")
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [key, value] => (key, value),
                _ => panic!("tests/goldens.txt: not a `key value` row: {line}"),
            },
        )
}

/// Assert that `got`, printed, is the one value recorded for `key`.
#[track_caller]
pub fn assert_golden(key: &str, got: impl std::fmt::Display) {
    let want: Vec<_> = goldens().filter(|&(k, _)| k == key).collect();
    let [(_, want)] = want[..] else {
        panic!("tests/goldens.txt has {} rows {key}", want.len());
    };
    let got = got.to_string();
    assert!(
        got == want,
        "{key}: got {got}, tests/goldens.txt records {want}"
    );
}

/// FNV-1a 64 over a byte stream, as the table writes it: 16 hex digits.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A fresh directory under the system temp dir, unique to this process and
/// call (tests run in parallel, in several processes), removed with
/// everything in it when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("condor-g-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
