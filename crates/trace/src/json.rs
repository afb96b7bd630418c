//! The one JSON writer of the workspace.
//!
//! Every artifact the program emits (JSONL and Chrome traces, campaign
//! reports and journals, `analyze` and `certify` documents) is built
//! from [`Obj`], which quotes and escapes every key and string and
//! places every separator. Output is compact, in insertion order.
//!
//! ```
//! use warped_trace::json::Obj;
//!
//! let doc = Obj::default().str("k", "a\"b").arr("xs", [Obj::default().opt("n", None::<u8>)]);
//! assert_eq!(doc.to_string(), r#"{"k":"a\"b","xs":[{"n":null}]}"#);
//! ```

use std::fmt::{self, Display, Write as _};

/// A JSON object under construction. It renders through [`Display`], so
/// one `Obj` is a value or an array item of another.
#[must_use]
#[derive(Debug, Clone, Default)]
pub struct Obj(String);

impl Obj {
    /// A member whose value is written as `v` displays: a number, a
    /// boolean, or a nested [`Obj`].
    pub fn val(mut self, key: &str, v: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.0, "{v}");
        self
    }

    /// A string member, always quoted and escaped.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        json_str(&mut self.0, v);
        self
    }

    /// [`Obj::val`] when present, `null` when absent.
    pub fn opt(self, key: &str, v: Option<impl Display>) -> Self {
        match v {
            Some(v) => self.val(key, v),
            None => self.val(key, "null"),
        }
    }

    /// An array member; each item is written as it displays.
    pub fn arr<T: Display>(mut self, key: &str, items: impl IntoIterator<Item = T>) -> Self {
        self.key(key);
        self.0.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            let _ = write!(self.0, "{item}");
        }
        self.0.push(']');
        self
    }

    fn key(&mut self, key: &str) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        json_str(&mut self.0, key);
        self.0.push(':');
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// Append `raw` to `out` as a JSON string literal, escaping quotes,
/// backslashes and control characters.
fn json_str(out: &mut String, raw: &str) {
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = Obj::default().str("a\"b", "a\"b\\c\nd\u{1}");
        assert_eq!(doc.to_string(), r#"{"a\"b":"a\"b\\c\nd\u0001"}"#);
    }

    #[test]
    fn objects_nest_and_empty_ones_stay_empty() {
        assert_eq!(Obj::default().to_string(), "{}");
        let inner = [1, 2].map(|n| Obj::default().val("n", n));
        let doc = Obj::default()
            .arr("xs", inner)
            .arr("none", [0u8; 0])
            .opt("some", Some(format_args!("{:.4}", 1.5)));
        assert_eq!(
            doc.to_string(),
            r#"{"xs":[{"n":1},{"n":2}],"none":[],"some":1.5000}"#
        );
    }
}
