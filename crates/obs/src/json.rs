//! The workspace's one JSON codec (no serde here). Objects are written
//! `{"key": value, "key": value}` and arrays `[value, value]`; integers
//! as they are, floats as `{:.9}`, NaN and ±∞ as `null` (read back as
//! NaN). The reader is flat and tolerant: it looks an object's top-level
//! fields up by key, skips unknown and nested keys, accepts any
//! whitespace and is aware of strings. Nested values come back as raw
//! text for another [`Reader::parse`] or [`elements`].

/// A value [`Writer`] can encode.
pub trait Value {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_value {
    ($($t:ty),*) => {$(impl Value for $t {
        fn write_json(&self, out: &mut String) { out.push_str(&self.to_string()) }
    })*};
}
display_value!(u64, usize, bool);

impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        match self.is_finite() {
            true => out.push_str(&format!("{self:.9}")),
            false => out.push_str("null"),
        }
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<V: Value> Value for Option<V> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<V: Value> Value for Vec<V> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Builds one JSON object, keys in insertion order; start with
/// [`object`]. A `Writer` is itself a [`Value`], so objects nest.
#[derive(Debug, Clone)]
pub struct Writer(String);

/// An empty object [`Writer`].
pub fn object() -> Writer {
    Writer("{".into())
}

impl Writer {
    /// Append `"key": value`.
    pub fn field(mut self, key: &str, value: &(impl Value + ?Sized)) -> Self {
        self.0.push_str(if self.0.len() == 1 { "" } else { ", " });
        key.write_json(&mut self.0);
        self.0.push_str(": ");
        value.write_json(&mut self.0);
        self
    }

    /// The object's JSON text.
    pub fn finish(self) -> String {
        self.0 + "}"
    }
}

impl Value for Writer {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
        out.push('}');
    }
}

/// The top-level fields of one JSON object, values as raw text.
#[derive(Debug, Clone)]
pub struct Reader<'a>(Vec<(String, &'a str)>);

impl<'a> Reader<'a> {
    /// Read `text` as one object; `None` when it is not `{…}`.
    pub fn parse(text: &'a str) -> Option<Self> {
        let fields = items(text, '{', '}')?.into_iter().filter_map(|item| {
            let (key, rest) = string_prefix(item)?;
            Some((key, rest.trim_start().strip_prefix(':')?.trim_start()))
        });
        Some(Reader(fields.collect()))
    }

    /// Raw JSON text of the first field named `key`.
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// A string field, unescaped.
    pub fn string(&self, key: &str) -> Option<String> {
        string_prefix(self.raw(key)?).map(|(s, _)| s)
    }

    /// A number field parsed as `T`; `null` reads as NaN, so only a
    /// float accepts it.
    pub fn number<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let raw = self.raw(key)?;
        (if raw == "null" { "NaN" } else { raw }).parse().ok()
    }
}

/// The elements of a JSON array as raw text; `None` when not `[…]`.
pub fn elements(text: &str) -> Option<Vec<&str>> {
    items(text, '[', ']')
}

/// Split the body of `open … close` at its top-level commas.
fn items(text: &str, open: char, close: char) -> Option<Vec<&str>> {
    let body = text.trim().strip_prefix(open)?.strip_suffix(close)?;
    let (mut out, mut depth, mut start, mut in_str, mut escaped) =
        (vec![], 0usize, 0, false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = in_str,
            '"' => in_str = !in_str,
            _ if in_str => {}
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(body[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(body[start..].trim());
    out.retain(|item| !item.is_empty());
    Some(out)
}

/// Decode the string literal `text` starts with; returns it and the rest.
fn string_prefix(text: &str) -> Option<(String, &str)> {
    let body = text.strip_prefix('"')?;
    let (mut chars, mut out) = (body.char_indices(), String::new());
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &body[i + 1..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(v: impl Value) -> String {
        let mut out = String::new();
        v.write_json(&mut out);
        out
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "a \"quoted\" back\\slash\nnew\ttab\rcr\u{1}\u{1f} é,}]";
        let json = object().field("s", nasty).finish();
        assert!(!json.contains('\n') && !json.contains('\u{1}'), "{json}");
        assert!(
            json.contains("\\u0001") && json.contains("\\u001f"),
            "{json}"
        );
        let obj = Reader::parse(&json).expect("object");
        assert_eq!(obj.string("s").as_deref(), Some(nasty));
    }

    #[test]
    fn number_rule() {
        assert_eq!(encode(42u64), "42");
        assert_eq!(encode(usize::MAX), usize::MAX.to_string());
        assert_eq!(encode(0.5f64), "0.500000000");
        assert_eq!(encode(-1.25f64), "-1.250000000");
        assert_eq!(encode(Some(2.0f64)), "2.000000000");
        assert_eq!(encode(None::<f64>), "null");
        assert_eq!(encode(true), "true");
    }

    #[test]
    fn non_finite_floats_are_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(encode(v), "null");
            assert_eq!(encode(Some(v)), "null");
            let json = object().field("x", &v).finish();
            assert_eq!(json, "{\"x\": null}");
            assert!(Reader::parse(&json)
                .unwrap()
                .number::<f64>("x")
                .unwrap()
                .is_nan());
        }
    }

    #[test]
    fn writer_layout_nests() {
        let json = object()
            .field("n", &1u64)
            .field("inner", &object().field("a", "b"))
            .field("list", &vec![1u64, 2, 3])
            .field("objs", &vec![object().field("k", &0u64), object()])
            .finish();
        assert_eq!(
            json,
            "{\"n\": 1, \"inner\": {\"a\": \"b\"}, \"list\": [1, 2, 3], \"objs\": [{\"k\": 0}, {}]}"
        );
        assert_eq!(object().finish(), "{}");
        assert_eq!(encode(Vec::<u64>::new()), "[]");
    }

    #[test]
    fn reader_accepts_compact_and_spaced_layouts() {
        let compact = "{\"a\":1,\"b\":\"x\",\"c\":2.5,\"d\":null}";
        let spaced = "{\n  \"a\" :  1 ,\n\t\"b\": \"x\",  \"c\" : 2.5e0, \"d\": null\n}\n";
        for text in [compact, spaced] {
            let obj = Reader::parse(text).expect(text);
            assert_eq!(obj.number::<u64>("a"), Some(1), "{text}");
            assert_eq!(obj.string("b").as_deref(), Some("x"), "{text}");
            assert_eq!(obj.number::<f64>("c"), Some(2.5), "{text}");
            assert!(obj.number::<f64>("d").unwrap().is_nan(), "{text}");
        }
    }

    #[test]
    fn reader_skips_unknown_and_nested_keys() {
        let text = r#"{"outer": {"a": 7, "s": "x,}"}, "list": [{"a": 8}, "a"],
                       "str": "\"a\": 9", "a": 3, "future": [1, [2, {}]]}"#;
        let obj = Reader::parse(text).expect("object");
        assert_eq!(
            obj.number::<u64>("a"),
            Some(3),
            "top-level key, not a nested one"
        );
        assert_eq!(obj.number::<u64>("missing"), None);
        assert_eq!(obj.string("str").as_deref(), Some("\"a\": 9"));
        let outer = Reader::parse(obj.raw("outer").unwrap()).unwrap();
        assert_eq!(outer.number::<u64>("a"), Some(7));
        assert_eq!(outer.string("s").as_deref(), Some("x,}"));
        let list = elements(obj.raw("list").unwrap()).unwrap();
        assert_eq!(list, vec!["{\"a\": 8}", "\"a\""]);
        assert_eq!(elements(obj.raw("future").unwrap()).unwrap().len(), 2);
    }

    #[test]
    fn reader_rejects_the_wrong_container() {
        assert!(Reader::parse("[1, 2]").is_none());
        assert!(Reader::parse("").is_none());
        assert!(elements("{\"a\": 1}").is_none());
        assert_eq!(elements(" [ ] ").unwrap(), Vec::<&str>::new());
        assert_eq!(Reader::parse("{}").unwrap().raw("a"), None);
    }
}
