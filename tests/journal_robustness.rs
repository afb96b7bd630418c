//! A checkpoint journal is outside input: a crash, a full disk or a user
//! can leave any bytes in it. `Journal::resume` must answer every file
//! with a valid resume or a typed `JournalError`, and never panic.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use warped::faults::{ChunkCounts, ChunkRecord, Journal, JournalError, JournalHeader};

fn header() -> JournalHeader {
    JournalHeader {
        bench: "BFS".into(),
        class: "comparator".into(),
        trials: 64,
        chunk_trials: 8,
        seed: 7,
        sampler: 4096,
    }
}

/// A fresh path per call, so cases never see each other's files.
fn temp_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "warped-journal-prop-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// The bytes of a well-formed journal holding `records`.
fn journal_bytes(records: &[ChunkRecord]) -> Vec<u8> {
    let path = temp_path();
    let mut j = Journal::create(&path, &header()).unwrap();
    for r in records {
        j.append(r).unwrap();
    }
    drop(j);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn records(seed: &[(u32, u8)]) -> Vec<ChunkRecord> {
    seed.iter()
        .map(|&(index, k)| match k % 3 {
            0 => ChunkRecord::Failed {
                index,
                attempts: u32::from(k),
            },
            _ => ChunkRecord::Done {
                index,
                attempts: 1,
                counts: ChunkCounts {
                    masked: u32::from(k),
                    detected: 1,
                    sdc: 0,
                    hang: u32::from(k % 2),
                },
            },
        })
        .collect()
}

/// Resume from a file holding `bytes`. Returning at all is the property:
/// a panic fails the test.
fn resume(bytes: &[u8]) -> Result<Vec<ChunkRecord>, JournalError> {
    let path = temp_path();
    std::fs::write(&path, bytes).unwrap();
    let out = Journal::resume(&path, &header()).map(|(_, done)| done.into_values().collect());
    std::fs::remove_file(&path).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, including invalid UTF-8.
    #[test]
    fn arbitrary_bytes_resume_or_fail_typed(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = resume(&bytes);
    }

    /// A well-formed journal followed by arbitrary bytes.
    #[test]
    fn garbage_after_a_valid_header_never_panics(
        tail in prop::collection::vec(any::<u8>(), 0..120),
        with_newline in any::<bool>(),
    ) {
        let mut bytes = journal_bytes(&[]);
        bytes.extend(tail);
        if with_newline {
            bytes.push(b'\n');
        }
        let _ = resume(&bytes);
    }

    /// A crash mid-append leaves a torn prefix: resume must accept it and
    /// return only records that were written.
    #[test]
    fn torn_tails_resume_a_subset(
        seed in prop::collection::vec((0u32..16, any::<u8>()), 0..8),
        cut in any::<usize>(),
    ) {
        let written = records(&seed);
        let bytes = journal_bytes(&written);
        let prefix = &bytes[..cut % (bytes.len() + 1)];
        let done = resume(prefix).expect("a torn journal still resumes");
        for r in &done {
            prop_assert!(written.contains(r), "resumed {r:?}, never written");
        }
    }

    /// A byte that is not UTF-8 anywhere in a valid journal.
    #[test]
    fn non_utf8_bytes_fail_typed(
        seed in prop::collection::vec((0u32..16, any::<u8>()), 0..6),
        at in any::<usize>(),
        byte in 0x80u8..0xff,
    ) {
        let mut bytes = journal_bytes(&records(&seed));
        let at = at % (bytes.len() + 1);
        bytes.insert(at, byte);
        prop_assert!(resume(&bytes).is_err(), "invalid UTF-8 at byte {at} must be an error");
    }
}

/// A journal string holding an escape is corrupt, not a different
/// campaign: the reader decodes no escapes, so `B\\FS` is refused rather
/// than compared as the raw five characters.
#[test]
fn escaped_header_string_is_corrupt() {
    let bytes = journal_bytes(&records(&[(0, 1)]));
    let text = String::from_utf8(bytes).unwrap();
    let escaped = text.replacen(r#""bench":"BFS""#, r#""bench":"B\\FS""#, 1);
    assert_ne!(escaped, text);
    match resume(escaped.as_bytes()) {
        Err(JournalError::Corrupt { line: 1, .. }) => {}
        other => panic!("escaped header string: {other:?}"),
    }
}
