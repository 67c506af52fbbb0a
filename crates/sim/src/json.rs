//! The workspace's one JSON writer: every document it emits — golden report
//! snapshots and bench artifacts — is an ordered [`Json`] value rendered by
//! [`render`]. Object keys keep insertion order, so the same value always
//! renders to the same bytes.
//!
//! Layout has one knob, `pretty_depth`: containers nested fewer than
//! `pretty_depth` levels deep put one member per line (two-space indent,
//! `": "` after keys); deeper ones are compact (`:` and `,`, no spaces).
//!
//! ```
//! use nssd_sim::json::{render, Json};
//! use nssd_sim::obj;
//!
//! let doc = obj! {
//!     name: "pnSSD",
//!     p99_us: Json::fixed(12.345, 1),
//!     cells: Json::array([Some(1u64), None], Json::from),
//! };
//! assert_eq!(
//!     render(&doc, 1),
//!     "{\n  \"name\": \"pnSSD\",\n  \"p99_us\": 12.3,\n  \"cells\": [1,null]\n}\n"
//! );
//! ```

use std::fmt::Write as _;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered exactly.
    Int(i128),
    /// A float in Rust's shortest-roundtrip form, `-0` folded to `0`.
    Float(f64),
    /// A float with a fixed number of decimals (`format!("{:.N}")`).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object whose keys render in insertion order.
    Object(Vec<(&'static str, Json)>),
}

/// An object literal: `obj! { key: value, ... }` with identifier keys, in
/// order, each value converted with [`Json::from`].
#[macro_export]
macro_rules! obj {
    ($($key:ident : $value:expr),* $(,)?) => {
        $crate::json::Json::Object(vec![$((stringify!($key), $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// A float rendered with exactly `decimals` digits after the point;
    /// `None` is `null`.
    pub fn fixed(x: impl Into<Option<f64>>, decimals: usize) -> Json {
        x.into().map_or(Json::Null, |x| Json::Fixed(x, decimals))
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn push(&mut self, key: &'static str, value: impl Into<Json>) {
        let Json::Object(fields) = self else {
            panic!("cannot add {key:?} to a non-object");
        };
        fields.push((key, value.into()));
    }

    /// An array of the mapped items.
    pub fn array<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Json) -> Json {
        Json::Array(items.into_iter().map(f).collect())
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
from!(
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
    bool => |v| Json::Bool(v),
    f64 => |v| Json::Float(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Compact rendering without a newline, honouring width and alignment —
/// for printing a value in a human-readable table.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0, 0);
        f.pad(&out)
    }
}

/// Renders `value` as JSON text ending in a newline; containers shallower
/// than `pretty_depth` put one member per line (see the [module docs](self)).
pub fn render(value: &Json, pretty_depth: usize) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0, pretty_depth);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Json, depth: usize, pretty_depth: usize) {
    let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match value {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => return out.push_str(&i.to_string()),
        Json::Float(x) => return out.push_str(&jf(*x)),
        Json::Fixed(x, decimals) => return out.push_str(&format!("{x:.decimals$}")),
        Json::Str(s) => return out.push_str(&jstr(s)),
        Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Object(fields) => (
            '{',
            '}',
            fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
        ),
    };
    let pretty = depth < pretty_depth && !members.is_empty();
    let newline = |out: &mut String, depth| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            out.push_str(&jstr(key));
            out.push_str(if pretty { ": " } else { ":" });
        }
        write_value(out, member, depth + 1, pretty_depth);
    }
    if pretty {
        newline(out, depth);
    }
    out.push(close);
}

/// Canonical float rendering: Rust's shortest-roundtrip `Display`, with
/// negative zero folded into `0` so the output is a function of the value.
fn jf(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x}")
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_rendering_is_canonical() {
        assert_eq!(jf(0.0), "0");
        assert_eq!(jf(-0.0), "0");
        assert_eq!(jf(0.5), "0.5");
        assert_eq!(jf(1.0), "1");
        let x = 0.1 + 0.2;
        assert_eq!(jf(x).parse::<f64>().unwrap(), x, "shortest roundtrip");
    }

    #[test]
    fn string_escaping_covers_controls() {
        assert_eq!(jstr("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(jstr("x\ny"), "\"x\\ny\"");
        assert_eq!(jstr("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn pretty_depth_sets_the_layout() {
        let doc = obj! {
            id: 7u64,
            rows: Json::Array(vec![obj! { a: 1u64, b: Json::Array(vec![]) }, obj! {}]),
        };
        assert_eq!(
            render(&doc, 0),
            "{\"id\":7,\"rows\":[{\"a\":1,\"b\":[]},{}]}\n"
        );
        assert_eq!(
            render(&doc, 1),
            "{\n  \"id\": 7,\n  \"rows\": [{\"a\":1,\"b\":[]},{}]\n}\n"
        );
        assert_eq!(
            render(&doc, 2),
            "{\n  \"id\": 7,\n  \"rows\": [\n    {\"a\":1,\"b\":[]},\n    {}\n  ]\n}\n"
        );
        assert_eq!(
            render(&doc, 3),
            "{\n  \"id\": 7,\n  \"rows\": [\n    {\n      \"a\": 1,\n      \"b\": []\n    },\n    \
             {}\n  ]\n}\n"
        );
    }

    #[test]
    fn none_is_null_and_fixed_floats_keep_their_decimals() {
        let doc = Json::Array(vec![
            None::<f64>.into(),
            Some(3u32).into(),
            Json::fixed(2.0, 3),
            Json::fixed(1234.5678, 0),
            Json::fixed(0.05, 1),
            Json::fixed(Some(1.25), 1),
            Json::fixed(None, 1),
            (-0.0f64).into(),
            u64::MAX.into(),
            true.into(),
        ]);
        assert_eq!(
            render(&doc, 0),
            "[null,3,2.000,1235,0.1,1.2,null,0,18446744073709551615,true]\n"
        );
        assert_eq!(
            format!("{:>6}|{}", Json::fixed(2.25, 1), Json::Null),
            "   2.2|null"
        );
    }
}
