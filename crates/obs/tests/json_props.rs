//! Property and edge-case tests for `ipra_obs::json`: randomized
//! render→parse round trips, escape handling, deep nesting, integer
//! boundaries and malformed-input rejection. No external property-testing
//! crate — each case seeds the workspace PRNG, so a failure names its
//! seed and `XorShift64Star::new(seed)` replays it.

use ipra_obs::json::{parse, parse_bytes, Json};
use ipra_workloads::synth::XorShift64Star;

/// A random string biased toward characters the escaper must handle:
/// quotes, backslashes, control characters, multi-byte UTF-8.
fn random_string(rng: &mut XorShift64Star) -> String {
    let pool: &[char] = &[
        'a', 'b', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', 'é', '→', '𝄞', ' ', '{',
        '}', '[', ']', ':', ',',
    ];
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| pool[rng.below(pool.len() as u64) as usize])
        .collect()
}

/// A random value of bounded depth. Floats are drawn from small integral
/// ratios so they are finite (non-finite values render as `null` and
/// cannot round-trip by design).
fn random_value(rng: &mut XorShift64Star, depth: u32) -> Json {
    let choices = if depth == 0 { 5 } else { 7 };
    match rng.below(choices) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Int(rng.next_u64() as i64),
        3 => Json::Float((rng.next_u64() as i64 % 1_000_000) as f64 / 64.0),
        4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The string escaper as a char-by-char reference: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` take their short forms, every
/// other control character below U+0020 becomes `\u00xx`, and everything
/// else is copied as is.
fn reference_escape(s: &str) -> String {
    let mut out = String::from('"');
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

#[test]
fn rendered_strings_match_the_reference_escaper() {
    let control: String = (0u32..0x20).filter_map(char::from_u32).collect();
    for seed in 0..500 {
        let mut rng = XorShift64Star::new(seed);
        // One short string and one long enough to hold several unescaped
        // runs between escapes.
        let short = random_string(&mut rng);
        let long: String = (0..8).map(|_| random_string(&mut rng)).collect();
        for s in [short, long, control.clone()] {
            let want = reference_escape(&s);
            assert_eq!(Json::Str(s.clone()).render(), want, "seed {seed}: {s:?}");
            let key = Json::Obj(vec![(s.clone(), Json::Null)]).render();
            assert_eq!(key, format!("{{{want}:null}}"), "seed {seed}: key {s:?}");
        }
    }
}

#[test]
fn random_values_round_trip_compact_and_pretty() {
    for seed in 0..500 {
        let v = random_value(&mut XorShift64Star::new(seed), 4);
        let compact =
            parse(&v.render()).unwrap_or_else(|e| panic!("seed {seed}: compact re-parse: {e}"));
        assert_eq!(compact, v, "seed {seed}: compact");
        let pretty = parse(&v.render_pretty())
            .unwrap_or_else(|e| panic!("seed {seed}: pretty re-parse: {e}"));
        assert_eq!(pretty, v, "seed {seed}: pretty");
    }
}

#[test]
fn every_escapable_character_round_trips() {
    let nasty: String = (1u32..0x20)
        .map(|c| char::from_u32(c).unwrap())
        .chain(['"', '\\', '/', 'é', '→', '𝄞'])
        .collect();
    let v = Json::Obj(vec![(nasty.clone(), Json::Str(nasty))]);
    let rendered = v.render();
    assert!(
        rendered.is_ascii() || rendered.contains('é'),
        "escaping never produces raw control bytes"
    );
    assert!(!rendered.bytes().any(|b| b < 0x20), "{rendered:?}");
    assert_eq!(parse(&rendered).unwrap(), v);
}

#[test]
fn unicode_escapes_parse_including_replacement_for_lone_surrogates() {
    assert_eq!(parse(r#""Aé→""#).unwrap(), Json::Str("Aé→".into()));
    // A lone surrogate is not a scalar value; the parser substitutes
    // U+FFFD rather than producing invalid UTF-8.
    assert_eq!(parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
    // A high surrogate followed by an escaped low one is one non-BMP
    // character, as RFC 8259 §7 and Python's `json.dumps` write it.
    assert_eq!(
        parse(r#""\ud834\udd1e""#).unwrap(),
        Json::Str("\u{1d11e}".into())
    );
    // Reversed, or followed by a non-surrogate, each half stays lone.
    assert_eq!(
        parse(r#""\udd1e\ud834""#).unwrap(),
        Json::Str("\u{fffd}\u{fffd}".into())
    );
    assert_eq!(
        parse(r#""\ud834\u0041""#).unwrap(),
        Json::Str("\u{fffd}A".into())
    );
    assert!(
        parse(r#""\ud834\uzzzz""#).is_err(),
        "a malformed escape after a high surrogate"
    );
    assert!(parse(r#""\u12"#).is_err(), "truncated escape");
    assert!(parse(r#""\uzzzz""#).is_err(), "non-hex escape");
    assert!(parse(r#""\x41""#).is_err(), "unknown escape letter");
}

#[test]
fn deep_nesting_round_trips_without_blowing_the_stack() {
    const DEPTH: usize = 512;
    let mut v = Json::Int(7);
    for _ in 0..DEPTH {
        v = Json::Arr(vec![v]);
    }
    let text = v.render();
    assert_eq!(text.matches('[').count(), DEPTH);
    assert_eq!(parse(&text).unwrap(), v);

    let mut o = Json::Bool(true);
    for _ in 0..DEPTH {
        o = Json::Obj(vec![("k".into(), o)]);
    }
    assert_eq!(parse(&o.render()).unwrap(), o);
}

#[test]
fn integer_boundaries_round_trip_and_overflow_is_rejected() {
    for n in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
        let v = Json::Int(n);
        assert_eq!(parse(&v.render()).unwrap(), v, "{n}");
    }
    // One past i64::MAX is not silently truncated or wrapped.
    assert!(parse("9223372036854775808").is_err());
    assert!(parse("-9223372036854775809").is_err());
    // But the same magnitude with an exponent is a float.
    assert_eq!(
        parse("9223372036854775808e0").unwrap(),
        Json::Float(9.223372036854776e18)
    );
}

#[test]
fn floats_keep_their_point_and_non_finite_renders_null() {
    // An integral float must not collapse into an Int on the wire.
    let v = Json::Float(3.0);
    assert_eq!(v.render(), "3.0");
    assert_eq!(parse(&v.render()).unwrap(), v);
    assert_eq!(Json::Float(f64::NAN).render(), "null");
    assert_eq!(Json::Float(f64::INFINITY).render(), "null");
}

#[test]
fn parse_bytes_rejects_invalid_utf8_with_the_offset() {
    let mut bytes = br#"{"k": "ab"#.to_vec();
    bytes.push(0xff);
    bytes.extend_from_slice(br#""}"#);
    let err = parse_bytes(&bytes).unwrap_err();
    assert!(err.contains("utf-8"), "{err}");
    assert!(err.contains('9'), "offset of the bad byte: {err}");
    // The same document without the bad byte parses.
    let good = br#"{"k": "ab"}"#;
    assert_eq!(
        parse_bytes(good).unwrap(),
        Json::Obj(vec![("k".into(), Json::Str("ab".into()))])
    );
}

#[test]
fn malformed_documents_are_rejected_not_mangled() {
    for bad in [
        "",
        "{",
        "[",
        "[1,",
        "[1 2]",
        r#"{"a"}"#,
        r#"{"a":}"#,
        "{,}",
        "tru",
        "nul",
        "01x",
        "\"unterminated",
        "1 2",
        "[1]]",
    ] {
        assert!(parse(bad).is_err(), "`{bad}` should be rejected");
    }
}

#[test]
fn whitespace_is_insignificant_everywhere() {
    let spaced = " \t\r\n{ \"a\" :\n[ 1 ,\t2 ] , \"b\" : { } }\r\n ";
    assert_eq!(
        parse(spaced).unwrap(),
        Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("b".into(), Json::Obj(vec![])),
        ])
    );
}
