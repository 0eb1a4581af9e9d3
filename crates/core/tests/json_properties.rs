//! Properties of the workspace's one JSON module: the parser survives any
//! input, and what the emit helpers write reads back as the same value.

use ooc_core::json::{escape, fmt_f64, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Emit a value with the module's own helpers (the way `ooc-serve` and the
/// JSONL writer build their lines).
fn emit(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(f) => fmt_f64(*f),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(emit).collect();
            format!("[{}]", items.join(","))
        }
        Value::Obj(map) => {
            let fields: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), emit(v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

fn arb_string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        0x20u32..0x7f,
        0u32..0x20,
        Just('"' as u32),
        Just('\\' as u32),
        0xa0u32..0x2fff,
        0x1f300u32..0x1f6ff,
    ]
    .prop_map(|c| char::from_u32(c).unwrap_or('?'));
    proptest::collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Scalars only; `Float` stays finite (non-finite emits as `null`).
fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        (-1e-6f64..1e-6).prop_map(Value::Float),
        arb_string().prop_map(Value::Str),
    ]
}

/// Two container levels over the leaves — the shapes the wire protocol and
/// the JSONL records actually use.
fn arb_value() -> impl Strategy<Value = Value> {
    let level = |inner: proptest::strategy::BoxedStrategy<Value>| {
        prop_oneof![
            inner.clone(),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            proptest::collection::vec((arb_string(), inner), 0..4)
                .prop_map(|kv| Value::Obj(kv.into_iter().collect::<BTreeMap<_, _>>())),
        ]
        .boxed()
    };
    level(level(arb_leaf().boxed()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Value::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_json_shaped_noise(
        picks in proptest::collection::vec(0usize..16, 0..4096),
    ) {
        const ALPHABET: [&str; 16] = [
            "{", "}", "[", "]", "\"", ":", ",", "\\", "u", "1", "-", "e", ".", "null", " ", "é",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = Value::parse(&text);
    }

    #[test]
    fn emit_then_parse_is_identity(v in arb_value()) {
        let text = emit(&v);
        prop_assert_eq!(Value::parse(&text), Ok(v), "emitted {}", text);
    }
}
