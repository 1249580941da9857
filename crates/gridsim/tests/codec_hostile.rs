//! The stable-store codec under hostile bytes: `from_bytes` answers `Ok` or
//! `Err` — it never panics, and never reserves memory out of proportion to
//! the input because the input claimed a large count.

use gridsim::codec::{encode_into, from_bytes, to_bytes};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// `System`, remembering each thread's largest single request.
struct Watching;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches no allocator state.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// The user-log chunk as `Scheduler::log_event` stores it.
type LogChunk = Vec<(u64, u64, String)>;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum State {
    Idle,
    Held(String),
    Running { on: String, cpus: u32 },
}

/// Every shape the stored records use: nested sequences, options, maps,
/// enums with payloads.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u64,
    state: State,
    excluded: Vec<String>,
    site: Option<String>,
    env: BTreeMap<String, String>,
    chunks: Vec<Vec<u8>>,
}

fn record() -> Record {
    Record {
        id: 42,
        state: State::Running {
            on: "gatekeeper.wisc.edu".into(),
            cpus: 8,
        },
        excluded: vec!["east".into(), "west".into()],
        site: Some("north".into()),
        env: BTreeMap::from([("GASS_URL".to_string(), "gass://n0.c2".to_string())]),
        chunks: vec![vec![1, 2, 3], vec![]],
    }
}

/// Decode `bytes` as `T`; the largest block asked for along the way.
fn largest_request<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> usize {
    LARGEST.with(|l| l.set(0));
    let _ = from_bytes::<T>(bytes);
    LARGEST.with(Cell::get)
}

/// A decode holds elements, not bytes, so the fair bound is one element per
/// input byte — `from_bytes` never believes a count beyond what the input
/// could hold — of the widest element the type nests (`Record` here), plus
/// room for an error message.
fn in_proportion(request: usize, input: usize) -> bool {
    request <= std::mem::size_of::<Record>() * input + 256
}

/// A valid encoding with a few bytes flipped and the tail cut off.
fn damaged(mut bytes: Vec<u8>, flips: &[(usize, u8)], cut: usize) -> Vec<u8> {
    for &(at, mask) in flips {
        let n = bytes.len();
        bytes[at % n] ^= mask;
    }
    bytes.truncate(cut % (bytes.len() + 1));
    bytes
}

proptest! {
    #[test]
    fn noise_decodes_or_is_refused(noise in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert!(in_proportion(largest_request::<LogChunk>(&noise), noise.len()));
        prop_assert!(in_proportion(largest_request::<Record>(&noise), noise.len()));
        prop_assert!(in_proportion(largest_request::<Vec<Record>>(&noise), noise.len()));
    }

    #[test]
    fn damaged_records_decode_or_are_refused(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in any::<usize>(),
    ) {
        let bytes = damaged(to_bytes(&record()).unwrap(), &flips, cut);
        prop_assert!(in_proportion(largest_request::<Record>(&bytes), bytes.len()));
        let chunk: LogChunk = vec![(1, 2, "submitted (app)".into()), (3, 4, String::new())];
        let bytes = damaged(to_bytes(&chunk).unwrap(), &flips, cut);
        prop_assert!(in_proportion(largest_request::<LogChunk>(&bytes), bytes.len()));
    }

    #[test]
    fn a_made_up_count_reserves_nothing(count in 1u64 << 20..u64::MAX, tail in proptest::collection::vec(any::<u8>(), 0..40)) {
        // "A sequence of `count` elements", followed by almost nothing.
        let mut bytes = count.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(from_bytes::<LogChunk>(&bytes).is_err());
        prop_assert!(in_proportion(largest_request::<LogChunk>(&bytes), bytes.len()));
        prop_assert!(in_proportion(largest_request::<String>(&bytes), bytes.len()));
        prop_assert!(in_proportion(largest_request::<BTreeMap<String, String>>(&bytes), bytes.len()));
    }

    #[test]
    fn encode_into_appends_what_to_bytes_returns(
        entries in proptest::collection::vec((any::<u64>(), any::<u64>(), "[ -~]{0,40}"), 0..20),
        already in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        let whole = to_bytes(&entries).unwrap();
        let mut scratch = already.clone();
        encode_into(&mut scratch, &entries).unwrap();
        prop_assert_eq!(&scratch[..already.len()], &already[..]);
        prop_assert_eq!(&scratch[already.len()..], &whole[..]);
        // Borrowed fields, as the job path encodes them: same bytes.
        let borrowed: Vec<(u64, u64, &str)> =
            entries.iter().map(|(t, j, m)| (*t, *j, m.as_str())).collect();
        prop_assert_eq!(to_bytes(&borrowed).unwrap(), whole);
        prop_assert_eq!(from_bytes::<LogChunk>(&scratch[already.len()..]).unwrap(), entries);
    }
}
