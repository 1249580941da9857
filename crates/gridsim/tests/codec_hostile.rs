//! The stable-store codec under hostile bytes: `from_bytes` answers `Ok` or
//! `Err` — it never panics, and never reserves memory out of proportion to
//! the input because the input claimed a large count.

use gridsim::codec::{encode_into, from_bytes, to_bytes, Decode};
use proptest::prelude::*;
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

#[derive(Debug, PartialEq)]
enum State {
    Idle,
    Held(String),
    Running { on: String, cpus: u32 },
}

gridsim::codec! { enum State { 0 => Idle, 1 => Held(reason), 2 => Running { on, cpus } } }

/// Every shape the stored records use: nested sequences, options, maps,
/// enums with payloads.
#[derive(Debug, PartialEq)]
struct Record {
    id: u64,
    state: State,
    excluded: Vec<String>,
    site: Option<String>,
    env: BTreeMap<String, String>,
    chunks: Vec<Vec<u8>>,
}

gridsim::codec! { struct Record { id, state, excluded, site, env, chunks } }

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
fn largest_request<T: Decode>(bytes: &[u8]) -> usize {
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

/// `v`'s varint with a redundant zero group: its last byte says "more"
/// and a `00` follows.
fn overlong<T: gridsim::codec::Encode>(v: &T) -> Vec<u8> {
    let mut bytes = to_bytes(v);
    *bytes.last_mut().expect("a varint has a byte") |= 0x80;
    bytes.push(0);
    bytes
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
        prop_assert!(in_proportion(largest_request::<State>(&noise), noise.len()));
    }

    #[test]
    fn damaged_records_decode_or_are_refused(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in any::<usize>(),
        index in prop_oneof![Just(3u32), Just(u32::MAX), 3u32..u32::MAX],
    ) {
        let bytes = damaged(to_bytes(&record()), &flips, cut);
        prop_assert!(in_proportion(largest_request::<Record>(&bytes), bytes.len()));
        let chunk: LogChunk = vec![(1, 2, "submitted (app)".into()), (3, 4, String::new())];
        let bytes = damaged(to_bytes(&chunk), &flips, cut);
        prop_assert!(in_proportion(largest_request::<LogChunk>(&bytes), bytes.len()));
        // `State` has three variants: any other index is a refusal, whatever
        // follows it. `Running`'s index, 2, is the first byte.
        let mut bytes = to_bytes(&index);
        bytes.extend_from_slice(&to_bytes(&record().state)[1..]);
        prop_assert!(from_bytes::<State>(&bytes).is_err());
        prop_assert!(in_proportion(largest_request::<State>(&bytes), bytes.len()));
    }

    #[test]
    fn a_made_up_count_reserves_nothing(count in 1u64 << 20..u64::MAX, tail in proptest::collection::vec(any::<u8>(), 0..40)) {
        // "A sequence of `count` elements", followed by almost nothing.
        let mut bytes = to_bytes(&count);
        bytes.extend_from_slice(&tail);
        prop_assert!(from_bytes::<LogChunk>(&bytes).is_err());
        prop_assert!(in_proportion(largest_request::<LogChunk>(&bytes), bytes.len()));
        prop_assert!(in_proportion(largest_request::<String>(&bytes), bytes.len()));
        prop_assert!(in_proportion(largest_request::<BTreeMap<String, String>>(&bytes), bytes.len()));
    }

    #[test]
    fn varints_round_trip_and_padded_ones_are_refused(
        v in prop_oneof![0u64..300, any::<u64>()],
        i in prop_oneof![-300i64..300, any::<i64>()],
    ) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v)), Ok(v));
        prop_assert_eq!(from_bytes::<i64>(&to_bytes(&i)), Ok(i));
        prop_assert!(from_bytes::<u64>(&overlong(&v)).is_err());
        prop_assert!(from_bytes::<i64>(&overlong(&i)).is_err());
        prop_assert!(from_bytes::<String>(&overlong(&v)).is_err());
        prop_assert!(from_bytes::<State>(&overlong(&(v as u32))).is_err());
    }

    #[test]
    fn encode_into_appends_what_to_bytes_returns(
        entries in proptest::collection::vec((any::<u64>(), any::<u64>(), "[ -~]{0,40}"), 0..20),
        already in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        let whole = to_bytes(&entries);
        let mut scratch = already.clone();
        encode_into(&mut scratch, &entries);
        prop_assert_eq!(&scratch[..already.len()], &already[..]);
        prop_assert_eq!(&scratch[already.len()..], &whole[..]);
        // Borrowed fields, as the job path encodes them: same bytes.
        let borrowed: Vec<(u64, u64, &str)> =
            entries.iter().map(|(t, j, m)| (*t, *j, m.as_str())).collect();
        prop_assert_eq!(to_bytes(&borrowed), whole);
        prop_assert_eq!(from_bytes::<LogChunk>(&scratch[already.len()..]).unwrap(), entries);
    }
}

/// What the macro writes refuses, never panics on, an enum index no variant
/// claims and a struct cut short at any byte.
#[test]
fn unknown_variants_and_truncated_structs_are_refused() {
    // The state's index follows the id; `Running`'s index, 2, is one byte.
    let at = to_bytes(&record().id).len();
    for index in [3, u32::MAX] {
        assert!(from_bytes::<State>(&to_bytes(&index)).is_err());
        let mut bytes = to_bytes(&record());
        bytes.splice(at..at + 1, to_bytes(&index));
        assert!(from_bytes::<Record>(&bytes).is_err());
    }
    let whole = to_bytes(&record());
    for cut in 0..whole.len() {
        assert!(from_bytes::<Record>(&whole[..cut]).is_err());
    }
    for state in [State::Idle, State::Held("x".into()), record().state] {
        let bytes = to_bytes(&state);
        assert_eq!(from_bytes::<State>(&bytes), Ok(state));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<State>(&bytes[..cut]).is_err());
        }
    }
}

/// The varint decoder's edges: shortest form only, nothing past `u64::MAX`,
/// and nothing out of range for the type it is read as.
#[test]
fn malformed_and_out_of_range_varints_are_refused() {
    // Overlong: `80 00` is a zero with a redundant group.
    assert!(from_bytes::<u64>(&[0x80, 0x00]).is_err());
    assert!(from_bytes::<u16>(&[0x80, 0x00]).is_err());
    assert!(from_bytes::<State>(&[0x80, 0x00]).is_err());
    assert!(from_bytes::<LogChunk>(&[0x80, 0x00]).is_err());
    // The tenth byte holds bit 63 alone: 1 is u64::MAX, 2 and up overflow.
    let mut tenth = vec![0xff; 9];
    tenth.push(0x01);
    assert_eq!(from_bytes::<u64>(&tenth), Ok(u64::MAX));
    for last in [0x02, 0x40, 0x7f, 0x80, 0xff] {
        tenth[9] = last;
        assert!(from_bytes::<u64>(&tenth).is_err(), "tenth byte {last:#x}");
    }
    // Eleven bytes never decode, even when the value would fit.
    let mut eleven = vec![0x80; 10];
    eleven.push(0x01);
    assert!(from_bytes::<u64>(&eleven).is_err());
    eleven[0] = 0x81;
    assert!(from_bytes::<Vec<u8>>(&eleven).is_err());
    // Out of range for the target type.
    assert!(from_bytes::<u16>(&to_bytes(&65_536u64)).is_err());
    assert!(from_bytes::<u32>(&to_bytes(&(1u64 << 32))).is_err());
    assert!(from_bytes::<i16>(&to_bytes(&32_768i64)).is_err());
    assert!(from_bytes::<i16>(&to_bytes(&-32_769i64)).is_err());
    assert!(from_bytes::<i32>(&to_bytes(&(1i64 << 31))).is_err());
    assert!(from_bytes::<i32>(&to_bytes(&(-(1i64 << 31) - 1))).is_err());
    assert!(from_bytes::<State>(&to_bytes(&(1u64 << 32))).is_err());
    // The extremes round-trip.
    assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)), Ok(u64::MAX));
    assert_eq!(from_bytes::<i64>(&to_bytes(&i64::MIN)), Ok(i64::MIN));
    assert_eq!(from_bytes::<i64>(&to_bytes(&i64::MAX)), Ok(i64::MAX));
}

/// A length varint that claims more than the input holds is refused, and
/// the decode reserves no more than the input's own size for it.
#[test]
fn a_length_past_the_input_is_refused_within_the_input() {
    for claim in [5u64, 300, 1 << 40, u64::MAX] {
        let mut bytes = to_bytes(&claim);
        bytes.extend_from_slice(&[b'x'; 4]);
        assert!(from_bytes::<String>(&bytes).is_err());
        assert!(from_bytes::<Vec<u8>>(&bytes).is_err());
        assert!(from_bytes::<LogChunk>(&bytes).is_err());
        // Long enough that the error message is not the largest request.
        let mut bytes = to_bytes(&claim.max(1 << 40));
        bytes.extend_from_slice(&[b'x'; 300]);
        assert!(largest_request::<Vec<u8>>(&bytes) <= bytes.len());
        assert!(largest_request::<String>(&bytes) <= bytes.len());
    }
}
