//! Append-only checkpoint journal for resumable campaigns.
//!
//! One JSONL file per campaign: a header line pinning the campaign
//! identity (benchmark, fault-site class, geometry, seed), then one
//! record per finished chunk. Every append is `fsync`ed
//! ([`File::sync_data`]) before the chunk is considered durable, so a
//! `kill -9` at any instant loses at most the chunk that was being
//! written — and a torn final line is detected and ignored on resume.
//!
//! Resume is keyed by **chunk index**, not file order: workers append
//! as they finish, so the journal's record order varies with thread
//! count and scheduling, but replaying it reproduces exactly the set of
//! finished chunks. Because every chunk's trial stream depends only on
//! `(seed, index)`, a resumed campaign is bit-identical to an
//! uninterrupted one.
//!
//! A [`ChunkRecord::Failed`] marks a chunk that exhausted its retry
//! budget; resume treats it as *not done* and re-runs it, so a crashing
//! chunk can be retried by simply relaunching with `--resume`.

use crate::outcome::TrialOutcome;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use warped_trace::json::Obj;
use warped_trace::{parse_flat, FieldMap, ParseError};

/// Campaign identity pinned by the journal's first line. A resume whose
/// header differs in any field is refused — mixing chunks of different
/// campaigns would silently corrupt the statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Benchmark name (paper spelling).
    pub bench: String,
    /// Fault-site class wire name, suffixed `+dmtr` for DMTR campaigns
    /// and `+detect` for detection-only ones.
    pub class: String,
    /// Total trials the campaign plans.
    pub trials: u32,
    /// Trials per chunk (part of the seeding contract).
    pub chunk_trials: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Profiling sampler capacity (changes the sampled sites).
    pub sampler: u64,
}

impl JournalHeader {
    fn to_line(&self) -> String {
        Obj::default()
            .str("rec", "campaign")
            .str("bench", &self.bench)
            .str("class", &self.class)
            .val("trials", self.trials)
            .val("chunk_trials", self.chunk_trials)
            .val("seed", self.seed)
            .val("sampler", self.sampler)
            .to_string()
    }

    fn from_fields(f: &FieldMap) -> Result<JournalHeader, JournalError> {
        let grab = |e: ParseError| JournalError::corrupt(1, e);
        Ok(JournalHeader {
            bench: f.str("bench").map_err(grab)?.to_string(),
            class: f.str("class").map_err(grab)?.to_string(),
            trials: f.num32("trials").map_err(grab)?,
            chunk_trials: f.num32("chunk_trials").map_err(grab)?,
            seed: f.num("seed").map_err(grab)?,
            sampler: f.num("sampler").map_err(grab)?,
        })
    }
}

/// Per-class trial counts of one finished chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCounts {
    /// Trials bit-identical to golden.
    pub masked: u32,
    /// Trials the checker (or a trap) caught.
    pub detected: u32,
    /// Silent data corruptions.
    pub sdc: u32,
    /// Budget-exceeded trials.
    pub hang: u32,
}

impl ChunkCounts {
    /// Total trials in the chunk.
    pub fn total(&self) -> u32 {
        self.masked + self.detected + self.sdc + self.hang
    }

    /// Tally one trial.
    pub fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Masked => self.masked += 1,
            TrialOutcome::Detected => self.detected += 1,
            TrialOutcome::Sdc => self.sdc += 1,
            TrialOutcome::Hang => self.hang += 1,
        }
    }

    /// Fold another chunk's counts in.
    pub fn absorb(&mut self, other: &ChunkCounts) {
        self.masked += other.masked;
        self.detected += other.detected;
        self.sdc += other.sdc;
        self.hang += other.hang;
    }
}

/// One journal record: a chunk that ran to completion, or one that
/// exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRecord {
    /// The chunk finished; its counts are final.
    Done {
        /// Chunk index.
        index: u32,
        /// Attempts consumed (1 = first try).
        attempts: u32,
        /// The chunk's trial outcomes.
        counts: ChunkCounts,
    },
    /// Every attempt panicked; the chunk's trials are missing.
    Failed {
        /// Chunk index.
        index: u32,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl ChunkRecord {
    /// The chunk index this record describes.
    pub fn index(&self) -> u32 {
        match self {
            ChunkRecord::Done { index, .. } | ChunkRecord::Failed { index, .. } => *index,
        }
    }

    fn to_line(self) -> String {
        match self {
            ChunkRecord::Done {
                index,
                attempts,
                counts,
            } => Obj::default()
                .str("rec", "chunk")
                .val("index", index)
                .val("attempts", attempts)
                .val("masked", counts.masked)
                .val("detected", counts.detected)
                .val("sdc", counts.sdc)
                .val("hang", counts.hang),
            ChunkRecord::Failed { index, attempts } => Obj::default()
                .str("rec", "chunk_failed")
                .val("index", index)
                .val("attempts", attempts),
        }
        .to_string()
    }
}

/// Why a journal could not be created, read, or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// A complete journal line failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The journal belongs to a different campaign.
    HeaderMismatch {
        /// First differing header field.
        field: &'static str,
        /// Value recorded in the journal.
        on_disk: String,
        /// Value the resuming campaign expects.
        requested: String,
    },
}

impl JournalError {
    fn corrupt(line: usize, reason: impl std::fmt::Display) -> JournalError {
        JournalError::Corrupt {
            line,
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal line {line} is corrupt: {reason}")
            }
            JournalError::HeaderMismatch {
                field,
                on_disk,
                requested,
            } => write!(
                f,
                "journal belongs to a different campaign: {field} is {on_disk} on disk \
                 but {requested} was requested"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// An open, append-only campaign journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Start a fresh journal at `path`, truncating whatever was there,
    /// and durably write the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be created or synced.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut j = Journal { file };
        j.write_line(&header.to_line())?;
        Ok(j)
    }

    /// Open an existing journal for resumption: validate its header
    /// against `header` and replay its records. A missing file starts a
    /// fresh journal (resume of nothing is a normal run). A torn final
    /// line (no trailing newline — the crash happened mid-append) is
    /// ignored.
    ///
    /// # Errors
    ///
    /// [`JournalError::HeaderMismatch`] if the on-disk campaign differs,
    /// [`JournalError::Corrupt`] if a complete line fails to parse, and
    /// [`JournalError::Io`] on filesystem errors.
    pub fn resume(
        path: &Path,
        header: &JournalHeader,
    ) -> Result<(Journal, BTreeMap<u32, ChunkRecord>), JournalError> {
        if !path.exists() {
            return Ok((Journal::create(path, header)?, BTreeMap::new()));
        }
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        let complete = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => "", // no complete line at all: treat as empty
        };
        let mut done = BTreeMap::new();
        let mut lines = complete.lines().enumerate();
        match lines.next() {
            Some((_, first)) => Self::check_header(first, header)?,
            None => {
                // Empty (or torn-header) file: start over.
                return Ok((Journal::create(path, header)?, BTreeMap::new()));
            }
        }
        for (i, line) in lines {
            let n = i + 1;
            let corrupt = |e: ParseError| JournalError::corrupt(n, e);
            let f = parse_flat(line).map_err(corrupt)?;
            let num = |key: &'static str| f.num32(key).map_err(corrupt);
            let record = match f.str("rec").map_err(corrupt)? {
                "chunk" => ChunkRecord::Done {
                    index: num("index")?,
                    attempts: num("attempts")?,
                    counts: ChunkCounts {
                        masked: num("masked")?,
                        detected: num("detected")?,
                        sdc: num("sdc")?,
                        hang: num("hang")?,
                    },
                },
                "chunk_failed" => ChunkRecord::Failed {
                    index: num("index")?,
                    attempts: num("attempts")?,
                },
                other => {
                    let reason = format!("unknown record type {other:?}");
                    return Err(JournalError::corrupt(n, reason));
                }
            };
            // A Done record is terminal for its index; a Failed record
            // never overrides one (a resumed retry may have succeeded).
            match done.get(&record.index()) {
                Some(ChunkRecord::Done { .. }) if matches!(record, ChunkRecord::Failed { .. }) => {}
                _ => {
                    done.insert(record.index(), record);
                }
            }
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((Journal { file }, done))
    }

    fn check_header(line: &str, expect: &JournalHeader) -> Result<(), JournalError> {
        let f = parse_flat(line).map_err(|e| JournalError::corrupt(1, e))?;
        let rec = f.str("rec").map_err(|e| JournalError::corrupt(1, e))?;
        if rec != "campaign" {
            return Err(JournalError::corrupt(
                1,
                format!("expected campaign header, found {rec:?}"),
            ));
        }
        let got = JournalHeader::from_fields(&f)?;
        let mismatch =
            |field, on_disk: &dyn std::fmt::Display, requested: &dyn std::fmt::Display| {
                Err(JournalError::HeaderMismatch {
                    field,
                    on_disk: on_disk.to_string(),
                    requested: requested.to_string(),
                })
            };
        if got.bench != expect.bench {
            return mismatch("bench", &got.bench, &expect.bench);
        }
        if got.class != expect.class {
            return mismatch("class", &got.class, &expect.class);
        }
        if got.trials != expect.trials {
            return mismatch("trials", &got.trials, &expect.trials);
        }
        if got.chunk_trials != expect.chunk_trials {
            return mismatch("chunk_trials", &got.chunk_trials, &expect.chunk_trials);
        }
        if got.seed != expect.seed {
            return mismatch("seed", &got.seed, &expect.seed);
        }
        if got.sampler != expect.sampler {
            return mismatch("sampler", &got.sampler, &expect.sampler);
        }
        Ok(())
    }

    /// Durably append one record: the write is followed by
    /// `sync_data`, so once this returns the chunk survives any crash.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write or sync fails.
    pub fn append(&mut self, record: &ChunkRecord) -> Result<(), JournalError> {
        self.write_line(&record.to_line())
    }

    fn write_line(&mut self, line: &str) -> Result<(), JournalError> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            bench: "SCAN".into(),
            class: "lane_transient".into(),
            trials: 24,
            chunk_trials: 4,
            seed: 99,
            sampler: 256,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("warped-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_records_through_a_resume() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, &header()).unwrap();
        let c0 = ChunkRecord::Done {
            index: 0,
            attempts: 1,
            counts: ChunkCounts {
                masked: 1,
                detected: 2,
                sdc: 1,
                hang: 0,
            },
        };
        let c2 = ChunkRecord::Failed {
            index: 2,
            attempts: 3,
        };
        j.append(&c0).unwrap();
        j.append(&c2).unwrap();
        drop(j);
        let (_j, done) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], c0);
        assert_eq!(done[&2], c2);
        std::fs::remove_file(&path).unwrap();
    }

    /// The exact bytes of every record kind. A journal written in this
    /// format by an earlier build must resume unchanged.
    #[test]
    fn record_lines_are_pinned_and_resume() {
        let done = ChunkRecord::Done {
            index: 3,
            attempts: 2,
            counts: ChunkCounts {
                masked: 1,
                detected: 5,
                sdc: 1,
                hang: 1,
            },
        };
        let failed = ChunkRecord::Failed {
            index: 7,
            attempts: 4,
        };
        let lines = [
            "{\"rec\":\"campaign\",\"bench\":\"SCAN\",\"class\":\"lane_transient\",\"trials\":24,\"chunk_trials\":4,\"seed\":99,\"sampler\":256}",
            "{\"rec\":\"chunk\",\"index\":3,\"attempts\":2,\"masked\":1,\"detected\":5,\"sdc\":1,\"hang\":1}",
            "{\"rec\":\"chunk_failed\",\"index\":7,\"attempts\":4}",
        ];
        assert_eq!(header().to_line(), lines[0]);
        assert_eq!(done.to_line(), lines[1]);
        assert_eq!(failed.to_line(), lines[2]);

        let path = tmp("pinned");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let (_j, got) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(got.into_values().collect::<Vec<_>>(), [done, failed]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&ChunkRecord::Done {
            index: 0,
            attempts: 1,
            counts: ChunkCounts::default(),
        })
        .unwrap();
        drop(j);
        // Simulate a crash mid-append: a partial record with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rec\":\"chunk\",\"index\":1,\"atte")
            .unwrap();
        drop(f);
        let (_j, done) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(done.len(), 1, "torn line must not surface as a record");
        assert!(done.contains_key(&0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_header_is_refused() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path, &header()).unwrap();
        drop(j);
        let mut other = header();
        other.seed = 100;
        match Journal::resume(&path, &other) {
            Err(JournalError::HeaderMismatch { field, .. }) => assert_eq!(field, "seed"),
            other => panic!("expected header mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn done_wins_over_failed_for_the_same_chunk() {
        let path = tmp("donewins");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, &header()).unwrap();
        let failed = ChunkRecord::Failed {
            index: 1,
            attempts: 3,
        };
        let fixed = ChunkRecord::Done {
            index: 1,
            attempts: 1,
            counts: ChunkCounts {
                masked: 4,
                ..Default::default()
            },
        };
        j.append(&failed).unwrap();
        j.append(&fixed).unwrap();
        drop(j);
        let (_j, done) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(done[&1], fixed);
        // And in the reverse order, Done still wins.
        let path2 = tmp("donewins2");
        let _ = std::fs::remove_file(&path2);
        let mut j = Journal::create(&path2, &header()).unwrap();
        j.append(&fixed).unwrap();
        j.append(&failed).unwrap();
        drop(j);
        let (_j, done) = Journal::resume(&path2, &header()).unwrap();
        assert_eq!(done[&1], fixed);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn missing_file_resumes_as_fresh() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (mut j, done) = Journal::resume(&path, &header()).unwrap();
        assert!(done.is_empty());
        j.append(&ChunkRecord::Done {
            index: 0,
            attempts: 1,
            counts: ChunkCounts::default(),
        })
        .unwrap();
        drop(j);
        let (_j, done) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(done.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_line_is_a_typed_error() {
        let path = tmp("garbage");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path, &header()).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json at all\n").unwrap();
        drop(f);
        match Journal::resume(&path, &header()) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn counts_tally_and_absorb() {
        let mut c = ChunkCounts::default();
        for o in TrialOutcome::ALL {
            c.record(o);
        }
        c.record(TrialOutcome::Detected);
        assert_eq!(c.total(), 5);
        assert_eq!(c.detected, 2);
        let mut sum = ChunkCounts::default();
        sum.absorb(&c);
        sum.absorb(&c);
        assert_eq!(sum.total(), 10);
        assert_eq!(sum.hang, 2);
    }
}
