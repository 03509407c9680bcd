//! Property tests of the `trace::json` writer: any string — quotes,
//! backslashes, every control character, non-ASCII and non-BMP text —
//! written as a key or value parses back to itself; finite floats parse
//! back to the same number and non-finite ones are `null`; and the trace
//! and engine emitters built on the writer stay parseable (and, for the
//! Chrome exports, schema-valid) under arbitrary run names.

use proptest::prelude::*;
use relaxreplay::prof::{engine_chrome_trace, EngineProf, SpanKind, WorkerProf};
use relaxreplay::trace::json::{self, Fixed, Value};
use relaxreplay::trace::{chrome_trace, validate_chrome_trace, RunTrace, TraceConfig, TraceEvent};

fn char_strategy() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control char")),
        Just('"'),
        Just('\\'),
        Just('/'),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        (0x80u32..0xd800).prop_map(|c| char::from_u32(c).expect("BMP scalar")),
        (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).expect("non-BMP scalar")),
    ]
}

fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(char_strategy(), 0..40).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #[test]
    fn any_string_round_trips_as_key_and_value(s in string_strategy()) {
        let doc = json::object(|o| {
            o.field("value", &s).field(&s, 7u64).array("items", |a| {
                a.item(&s);
            });
        });
        let v = json::parse(&doc).map_err(|e| TestCaseError::fail(format!("{e}: {doc}")))?;
        prop_assert_eq!(v.get("value"), Some(&Value::Str(s.clone())));
        prop_assert_eq!(v.get(&s).and_then(Value::as_u64), Some(7));
        let items = v.get("items").and_then(Value::as_array).expect("items");
        prop_assert_eq!(items, &[Value::Str(s.clone())][..]);
        prop_assert_eq!(json::parse(&json::escape(&s)), Ok(Value::Str(s.clone())));
    }

    #[test]
    fn finite_floats_round_trip(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        let doc = json::object(|o| {
            o.field("x", x);
        });
        let parsed = json::parse(&doc).map_err(|e| TestCaseError::fail(format!("{e}: {doc}")))?;
        match parsed.get("x").expect("field x") {
            Value::Null => prop_assert!(!x.is_finite(), "{doc}"),
            Value::Num(y) => prop_assert_eq!(*y, x),
            Value::UInt(n) => prop_assert_eq!(*n as f64, x),
            other => prop_assert!(false, "{other:?} from {doc}"),
        }
    }

    #[test]
    fn emitters_stay_valid_under_any_run_name(name in string_strategy()) {
        let mut trace = RunTrace::new(1, &TraceConfig::full());
        trace.cores[0].push(1, TraceEvent::IntervalOpen { cisn: 0, ordinal: 0 });
        trace.cores[0].push(2, TraceEvent::Squash { after_seq: 1 });
        trace.coherence.push(3, TraceEvent::SnoopTableBump { line: 4 });
        for line in trace.to_jsonl(&name).lines() {
            let v = json::parse(line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            let expected = (!name.is_empty()).then(|| Value::Str(name.clone()));
            prop_assert_eq!(v.get("run").cloned(), expected);
        }
        let chrome = chrome_trace(&[(name.clone(), &trace)]);
        let stats = validate_chrome_trace(&chrome).map_err(TestCaseError::fail)?;
        prop_assert_eq!(stats.processes, 1);

        let mut prof = EngineProf { first_error_ns: Some(9), ..EngineProf::default() };
        let mut w = WorkerProf::new(0);
        w.push_span(SpanKind::Exec, 0, 5, 0, 1);
        prof.workers.push(w);
        let engine = engine_chrome_trace(&[(name.clone(), &prof)]);
        validate_chrome_trace(&engine).map_err(TestCaseError::fail)?;
        json::parse(&prof.summary_json()).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn non_finite_floats_are_written_as_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let doc = json::object(|o| {
            o.field("x", x)
                .field("fixed", Fixed(x, 2))
                .array("xs", |a| {
                    a.item(x);
                });
        });
        assert_eq!(doc, r#"{"x":null,"fixed":null,"xs":[null]}"#);
    }
    let doc = json::object(|o| {
        o.field("fixed", Fixed(2.345, 1))
            .field("zero", Fixed(8713.4, 0));
    });
    assert_eq!(doc, r#"{"fixed":2.3,"zero":8713}"#);
}

#[test]
fn nesting_balances_and_separates() {
    let doc = json::object(|o| {
        o.object("empty", |_| {})
            .array("none", |_| {})
            .array("rows", |a| {
                a.object(|r| {
                    r.field("a", 1u64).field("b", None::<u64>);
                })
                .object(|_| {})
                .item(true)
                .item(None::<u64>);
            })
            .field("last", Some("x"));
    });
    assert_eq!(
        doc,
        r#"{"empty":{},"none":[],"rows":[{"a":1,"b":null},{},true,null],"last":"x"}"#
    );
}

/// Each nesting level is a few recursive parser frames, so an unbounded
/// depth would overflow the stack and abort the process: hostile depths
/// are an `Err` naming the byte where the limit was crossed, and every
/// depth up to the limit still parses.
#[test]
fn nesting_deeper_than_the_limit_is_an_error_not_a_stack_overflow() {
    // One level of a deep array, then of a deep object.
    for level in ["[", "{\"a\":"] {
        let doc = level.repeat(100_000);
        let err = json::parse(&doc).expect_err("hostile nesting must be refused");
        let at = json::MAX_DEPTH * level.len();
        assert_eq!(
            err,
            format!(
                "nesting deeper than {} levels at byte {at}",
                json::MAX_DEPTH
            )
        );
    }

    let n = json::MAX_DEPTH;
    let at_limit = format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(json::parse(&at_limit).is_ok());
    let past_limit = format!("[{at_limit}]");
    assert_eq!(
        json::parse(&past_limit),
        Err(format!("nesting deeper than {n} levels at byte {n}"))
    );
}
