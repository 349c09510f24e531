//! Tiny hand-rolled JSON encoding helpers: the workspace has no
//! serialisation dependency, and the JSONL schema here is small enough
//! that hand-assembly is the simpler dependency story.

/// A JSON number for `v`, or `null` when `v` is not finite — `inf`/`NaN`
/// must never leak into a JSONL file.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal for `s`, with the mandatory escapes applied.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders extra `labels` as trailing `,"key":"value"` JSON members.
pub(crate) fn label_suffix(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!(",{}:{}", json_str(k), json_str(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_strings_encode_as_valid_json() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(label_suffix(&[("device", "d0")]), ",\"device\":\"d0\"");
        assert_eq!(label_suffix(&[]), "");
    }
}
