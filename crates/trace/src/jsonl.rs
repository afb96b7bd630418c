//! JSON-Lines trace format: one flat JSON object per event.
//!
//! Lines are built with the workspace's one JSON writer,
//! [`crate::json::Obj`]. The format is deliberately flat (no nested
//! arrays or objects, no escapes in strings) so [`parse_flat`], a small
//! reader without a serde dependency, reads it back; the checkpoint
//! journal of `warped-faults` reuses that reader. Register fields
//! serialize as the raw register number or `null`; the four issue
//! source slots become `s0`..`s3`.

use crate::event::{
    unit_from_str, unit_str, wire_name, TraceEvent, VerifyKind, FAULT_SITE_NAMES, OUTCOME_NAMES,
};
use crate::json::Obj;
use std::fmt;
use warped_isa::{Reg, UnitType};

/// Serialize one event to its JSONL line (no trailing newline).
pub fn to_line(ev: &TraceEvent) -> String {
    let mut o = Obj::default().str("ev", ev.tag());
    // An event with a stream position opens with it.
    if let (Some(sm), Some(cycle)) = (ev.sm(), ev.cycle()) {
        o = o.val("sm", sm).val("cycle", cycle);
    }
    let reg = |r: &Option<Reg>| r.map(|r| r.0);
    let o = match ev {
        TraceEvent::LaunchBegin { index } => o.val("index", index),
        TraceEvent::Issue {
            warp,
            pc,
            unit,
            active,
            full,
            has_result,
            dst,
            srcs,
            ..
        } => o
            .val("warp", warp)
            .val("pc", pc)
            .str("unit", unit_str(*unit))
            .val("active", active)
            .val("full", full)
            .val("has_result", has_result)
            .opt("dst", reg(dst))
            .opt("s0", reg(&srcs[0]))
            .opt("s1", reg(&srcs[1]))
            .opt("s2", reg(&srcs[2]))
            .opt("s3", reg(&srcs[3])),
        TraceEvent::IntraPair {
            warp,
            active,
            covered,
            ..
        } => o
            .val("warp", warp)
            .val("active", active)
            .val("covered", covered),
        TraceEvent::Enqueue {
            warp,
            unit,
            dst,
            depth,
            capacity,
            ..
        } => o
            .val("warp", warp)
            .str("unit", unit_str(*unit))
            .opt("dst", reg(dst))
            .val("depth", depth)
            .val("capacity", capacity),
        TraceEvent::Verify {
            warp,
            unit,
            dst,
            kind,
            issued,
            active,
            ..
        } => o
            .val("warp", warp)
            .str("unit", unit_str(*unit))
            .opt("dst", reg(dst))
            .str("kind", kind.as_str())
            .val("issued", issued)
            .val("active", active),
        TraceEvent::Stall { warp, cycles, .. } => o.val("warp", warp).val("cycles", cycles),
        TraceEvent::Idle { .. } => o,
        TraceEvent::SmDone { drained, .. } => o.val("drained", drained),
        TraceEvent::Error { warp, lane, .. } => o.val("warp", warp).val("lane", lane),
        TraceEvent::FaultInjected {
            sm,
            trial,
            kind,
            lane,
            cycle,
        } => o
            .val("sm", sm)
            .val("trial", trial)
            .str("kind", kind)
            .val("lane", lane)
            .val("cycle", cycle),
        TraceEvent::TrialOutcome { trial, outcome } => {
            o.val("trial", trial).str("outcome", outcome)
        }
    };
    o.to_string()
}

/// Why a JSONL line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a flat JSON object of the expected shape.
    Malformed(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong type or out of range.
    BadValue(&'static str),
    /// The `ev` tag names no known event.
    UnknownTag(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed(s) => write!(f, "malformed JSONL line: {s}"),
            ParseError::MissingField(k) => write!(f, "missing field `{k}`"),
            ParseError::BadValue(k) => write!(f, "bad value for field `{k}`"),
            ParseError::UnknownTag(t) => write!(f, "unknown event tag `{t}`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// One parsed scalar from a flat JSON object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar {
    /// An unsigned integer.
    Num(u64),
    /// A string without escapes.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parse a flat `{"key":scalar,...}` object into its [`FieldMap`].
/// Scalars: unsigned integers, strings without escapes, `true`/`false`,
/// `null`. This reader decodes no escapes, so a key or string holding a
/// backslash is refused rather than misread.
///
/// Public because other flat-JSONL formats in the workspace (the campaign
/// checkpoint journal) reuse this parser rather than growing their own.
///
/// # Errors
///
/// [`ParseError::Malformed`] when the line is not a flat object of those
/// scalars, including when a key or string holds an escape.
pub fn parse_flat(line: &str) -> Result<FieldMap, ParseError> {
    let s = line.trim();
    let body = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| ParseError::Malformed(line.into()))?;
    let mut fields = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        // key
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| ParseError::Malformed(line.into()))?;
        let kq = rest
            .find('"')
            .ok_or_else(|| ParseError::Malformed(line.into()))?;
        let key = unescaped(&rest[..kq], line)?.to_string();
        rest = rest[kq + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| ParseError::Malformed(line.into()))?
            .trim_start();
        // value
        let (value, after) = if let Some(r) = rest.strip_prefix('"') {
            let vq = r
                .find('"')
                .ok_or_else(|| ParseError::Malformed(line.into()))?;
            (Scalar::Str(unescaped(&r[..vq], line)?.into()), &r[vq + 1..])
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let tok = rest[..end].trim();
            let v = match tok {
                "true" => Scalar::Bool(true),
                "false" => Scalar::Bool(false),
                "null" => Scalar::Null,
                _ => Scalar::Num(
                    tok.parse::<u64>()
                        .map_err(|_| ParseError::Malformed(line.into()))?,
                ),
            };
            (v, &rest[end..])
        };
        fields.push((key, value));
        rest = after.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(ParseError::Malformed(line.into()));
        }
    }
    Ok(FieldMap(fields))
}

/// `raw` itself, or [`ParseError::Malformed`] when it holds an escape.
fn unescaped<'a>(raw: &'a str, line: &str) -> Result<&'a str, ParseError> {
    if raw.contains('\\') {
        return Err(ParseError::Malformed(line.into()));
    }
    Ok(raw)
}

/// Typed accessors over the fields of one parsed flat object.
pub struct FieldMap(Vec<(String, Scalar)>);

impl FieldMap {
    /// Look up a field.
    ///
    /// # Errors
    ///
    /// [`ParseError::MissingField`] when absent.
    pub fn get(&self, key: &'static str) -> Result<&Scalar, ParseError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or(ParseError::MissingField(key))
    }

    /// A `u64` field.
    ///
    /// # Errors
    ///
    /// Missing field or non-numeric value.
    pub fn num(&self, key: &'static str) -> Result<u64, ParseError> {
        match self.get(key)? {
            Scalar::Num(n) => Ok(*n),
            _ => Err(ParseError::BadValue(key)),
        }
    }

    /// A `u32` field.
    ///
    /// # Errors
    ///
    /// Missing field, non-numeric value, or overflow.
    pub fn num32(&self, key: &'static str) -> Result<u32, ParseError> {
        u32::try_from(self.num(key)?).map_err(|_| ParseError::BadValue(key))
    }

    /// A string field.
    ///
    /// # Errors
    ///
    /// Missing field or non-string value.
    pub fn str(&self, key: &'static str) -> Result<&str, ParseError> {
        match self.get(key)? {
            Scalar::Str(s) => Ok(s),
            _ => Err(ParseError::BadValue(key)),
        }
    }

    /// A boolean field.
    ///
    /// # Errors
    ///
    /// Missing field or non-boolean value.
    pub fn bool(&self, key: &'static str) -> Result<bool, ParseError> {
        match self.get(key)? {
            Scalar::Bool(b) => Ok(*b),
            _ => Err(ParseError::BadValue(key)),
        }
    }

    fn reg(&self, key: &'static str) -> Result<Option<Reg>, ParseError> {
        match self.get(key)? {
            Scalar::Null => Ok(None),
            Scalar::Num(n) => u16::try_from(*n)
                .map(|r| Some(Reg(r)))
                .map_err(|_| ParseError::BadValue(key)),
            _ => Err(ParseError::BadValue(key)),
        }
    }
    fn unit(&self, key: &'static str) -> Result<UnitType, ParseError> {
        unit_from_str(self.str(key)?).ok_or(ParseError::BadValue(key))
    }

    /// A string field that must be one of `names`.
    fn name(&self, key: &'static str, names: &[&'static str]) -> Result<&'static str, ParseError> {
        wire_name(names, self.str(key)?).ok_or(ParseError::BadValue(key))
    }
}

/// Parse one JSONL line back into a [`TraceEvent`].
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    let f = parse_flat(line)?;
    let tag = f.str("ev")?.to_string();
    let ev = match tag.as_str() {
        "launch" => TraceEvent::LaunchBegin {
            index: f.num32("index")?,
        },
        "issue" => TraceEvent::Issue {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            warp: f.num("warp")?,
            pc: f.num32("pc")?,
            unit: f.unit("unit")?,
            active: f.num32("active")?,
            full: f.bool("full")?,
            has_result: f.bool("has_result")?,
            dst: f.reg("dst")?,
            srcs: [f.reg("s0")?, f.reg("s1")?, f.reg("s2")?, f.reg("s3")?],
        },
        "intra" => TraceEvent::IntraPair {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            warp: f.num("warp")?,
            active: f.num32("active")?,
            covered: f.num32("covered")?,
        },
        "enq" => TraceEvent::Enqueue {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            warp: f.num("warp")?,
            unit: f.unit("unit")?,
            dst: f.reg("dst")?,
            depth: f.num32("depth")?,
            capacity: f.num32("capacity")?,
        },
        "verify" => TraceEvent::Verify {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            warp: f.num("warp")?,
            unit: f.unit("unit")?,
            dst: f.reg("dst")?,
            kind: VerifyKind::from_wire(f.str("kind")?).ok_or(ParseError::BadValue("kind"))?,
            issued: f.num("issued")?,
            active: f.num32("active")?,
        },
        "stall" => TraceEvent::Stall {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            warp: f.num("warp")?,
            cycles: f.num("cycles")?,
        },
        "idle" => TraceEvent::Idle {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
        },
        "done" => TraceEvent::SmDone {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            drained: f.num("drained")?,
        },
        "error" => TraceEvent::Error {
            sm: f.num32("sm")?,
            cycle: f.num("cycle")?,
            warp: f.num("warp")?,
            lane: f.num32("lane")?,
        },
        "fault" => TraceEvent::FaultInjected {
            sm: f.num32("sm")?,
            trial: f.num32("trial")?,
            kind: f.name("kind", &FAULT_SITE_NAMES)?,
            lane: f.num32("lane")?,
            cycle: f.num("cycle")?,
        },
        "trial" => TraceEvent::TrialOutcome {
            trial: f.num32("trial")?,
            outcome: f.name("outcome", &OUTCOME_NAMES)?,
        },
        _ => return Err(ParseError::UnknownTag(tag)),
    };
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::LaunchBegin { index: 2 },
            TraceEvent::Issue {
                sm: 1,
                cycle: 10,
                warp: 42,
                pc: 7,
                unit: UnitType::Sfu,
                active: 32,
                full: true,
                has_result: true,
                dst: Some(Reg(3)),
                srcs: [Some(Reg(1)), None, Some(Reg(2)), None],
            },
            TraceEvent::IntraPair {
                sm: 0,
                cycle: 4,
                warp: 9,
                active: 12,
                covered: 12,
            },
            TraceEvent::Enqueue {
                sm: 2,
                cycle: 5,
                warp: 8,
                unit: UnitType::LdSt,
                dst: None,
                depth: 3,
                capacity: 4,
            },
            TraceEvent::Verify {
                sm: 2,
                cycle: 6,
                warp: 8,
                unit: UnitType::Sp,
                dst: Some(Reg(0)),
                kind: VerifyKind::RawStall,
                issued: 5,
                active: 32,
            },
            TraceEvent::Stall {
                sm: 2,
                cycle: 6,
                warp: 8,
                cycles: 2,
            },
            TraceEvent::Idle { sm: 3, cycle: 11 },
            TraceEvent::SmDone {
                sm: 3,
                cycle: 20,
                drained: 4,
            },
            TraceEvent::Error {
                sm: 0,
                cycle: 9,
                warp: 1,
                lane: 17,
            },
            TraceEvent::FaultInjected {
                sm: 1,
                trial: 12,
                kind: "lane_stuck",
                lane: 21,
                cycle: 0,
            },
            TraceEvent::FaultInjected {
                sm: 0,
                trial: 13,
                kind: "comparator",
                lane: u32::MAX,
                cycle: 88,
            },
            TraceEvent::TrialOutcome {
                trial: 13,
                outcome: "masked",
            },
        ]
    }

    #[test]
    fn every_event_roundtrips() {
        for ev in sample_events() {
            let line = to_line(&ev);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_line("not json"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"idle\",\"sm\":0}"),
            Err(ParseError::MissingField("cycle"))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"wat\"}"),
            Err(ParseError::UnknownTag(_))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"idle\",\"sm\":\"zero\",\"cycle\":1}"),
            Err(ParseError::BadValue("sm"))
        ));
    }
}
