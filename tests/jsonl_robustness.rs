//! A JSONL trace is outside input: a crash can tear its last line and a
//! user can hand `replay::read_jsonl` any file. `jsonl::parse_line` and
//! `replay::read_jsonl` must answer every input with events or a typed
//! `ParseError`, and never panic.

use proptest::prelude::*;
use std::sync::OnceLock;
use warped::dmr::{DmrConfig, WarpedDmr};
use warped::experiments::ExperimentConfig;
use warped::faults::{FaultSiteClass, TrialOutcome};
use warped::kernels::Benchmark;
use warped::trace::jsonl::{parse_line, to_line};
use warped::trace::replay::read_jsonl;
use warped::trace::{parse_flat, CollectSink, ParseError, TraceEvent, TraceHandle};

/// One line per event tag of a real BFS trace at Tiny scale, written as
/// `warped trace --format jsonl` writes it: the first occurrence of each
/// tag, in stream order.
fn real_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let cfg = ExperimentConfig::test_tiny();
        let w = Benchmark::Bfs.build(cfg.size).unwrap();
        let mut engine = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
        let (collector, handle) = TraceHandle::shared(CollectSink::new());
        engine.set_trace(handle.clone());
        w.run_traced(&cfg.gpu, &mut engine, handle).unwrap();
        let events: Vec<TraceEvent> = collector.lock().unwrap().take();
        let mut seen = Vec::new();
        let mut lines = Vec::new();
        for ev in &events {
            if !seen.contains(&ev.tag()) {
                seen.push(ev.tag());
                lines.push(to_line(ev));
            }
        }
        assert!(lines.len() >= 6, "BFS trace has too few event kinds");
        lines
    })
}

/// The first `n` real lines (cycling), newline-terminated.
fn real_text(n: usize) -> String {
    real_lines()
        .iter()
        .cycle()
        .take(n)
        .map(|l| format!("{l}\n"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, including invalid UTF-8. Returning at all is the
    /// property: a panic fails the test.
    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_line(&String::from_utf8_lossy(&bytes));
        let _ = read_jsonl(bytes.as_slice());
    }

    /// A crash mid-write leaves a torn last line: every strict prefix of
    /// a real line is an error, and `read_jsonl` names that line.
    #[test]
    fn torn_lines_fail_typed(full in 0usize..6, pick in any::<usize>(), cut in any::<usize>()) {
        let line = &real_lines()[pick % real_lines().len()];
        let torn = &line[..cut % line.len()];
        prop_assert!(parse_line(torn).is_err(), "torn line {torn:?} parsed");
        let text = real_text(full) + torn;
        match read_jsonl(text.as_bytes()) {
            Ok(events) => {
                prop_assert!(torn.is_empty(), "torn line {torn:?} accepted");
                prop_assert_eq!(events.len(), full);
            }
            Err((at, _)) => prop_assert_eq!(at, full + 1),
        }
    }

    /// A byte that is not UTF-8 anywhere in a real trace.
    #[test]
    fn non_utf8_bytes_fail_typed(lines in 1usize..8, at in any::<usize>(), byte in 0x80u16..0x100) {
        let mut bytes = real_text(lines).into_bytes();
        let at = at % (bytes.len() + 1);
        bytes.insert(at, byte as u8);
        let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();
        match read_jsonl(bytes.as_slice()) {
            Err((n, ParseError::Malformed(_))) => prop_assert_eq!(n, line),
            other => prop_assert!(false, "invalid UTF-8 at byte {at}: {other:?}"),
        }
    }
}

/// The reader decodes no escapes, so a key or string holding one is
/// refused rather than kept raw (`a\\b` would otherwise read as four
/// characters, and `\"` would end the string early).
#[test]
fn escaped_strings_are_refused() {
    for line in [
        r#"{"k":"a\\b"}"#,
        r#"{"ev":"trial","trial":1,"outcome":"mas\"ked"}"#,
        r#"{"ev":"trial","trial":1,"outcome":"masked\n"}"#,
        r#"{"ev":"idle","s\m":0,"cycle":1}"#,
    ] {
        assert!(
            matches!(parse_flat(line), Err(ParseError::Malformed(_))),
            "{line}"
        );
        assert!(
            matches!(parse_line(line), Err(ParseError::Malformed(_))),
            "{line}"
        );
    }
    let text = real_text(2) + r#"{"ev":"trial","trial":1,"outcome":"a\\b"}"# + "\n";
    assert!(matches!(
        read_jsonl(text.as_bytes()),
        Err((3, ParseError::Malformed(_)))
    ));
}

/// Fault-site and outcome names are a closed vocabulary: every name a
/// campaign can emit reads back as the same `&'static str`, and any other
/// name is a typed error that `read_jsonl` pins to its line.
#[test]
fn unknown_wire_names_fail_typed() {
    let fault = |kind: &str| {
        format!(r#"{{"ev":"fault","sm":0,"trial":3,"kind":"{kind}","lane":5,"cycle":9}}"#)
    };
    let trial = |outcome: &str| format!(r#"{{"ev":"trial","trial":3,"outcome":"{outcome}"}}"#);
    for site in FaultSiteClass::ALL {
        match parse_line(&fault(site.as_str())) {
            Ok(TraceEvent::FaultInjected { kind, .. }) => assert_eq!(kind, site.as_str()),
            other => panic!("{site}: {other:?}"),
        }
    }
    for class in TrialOutcome::ALL {
        match parse_line(&trial(class.as_str())) {
            Ok(TraceEvent::TrialOutcome { outcome, .. }) => assert_eq!(outcome, class.as_str()),
            other => panic!("{class}: {other:?}"),
        }
    }
    for name in ["cosmic_ray", "", "Masked", "lane_transient "] {
        assert_eq!(parse_line(&fault(name)), Err(ParseError::BadValue("kind")));
        assert_eq!(
            parse_line(&trial(name)),
            Err(ParseError::BadValue("outcome"))
        );
    }
    let text = real_text(2) + &trial("crash") + "\n";
    assert_eq!(
        read_jsonl(text.as_bytes()),
        Err((3, ParseError::BadValue("outcome")))
    );
}
