//! Pins the plan-cache key of every function in `testdata/*.lcm` and of a
//! small seeded corpus, with an empty placement context and with a
//! speculative `spec entry=…` context.
//!
//! The keys address the in-process plan cache and persisted
//! `lcm-cache-v1` files. A printer or fingerprint change that
//! moves any of them would silently turn every existing cache file into
//! misses, so the 128-bit values are hard-coded here. A unit solved against
//! retained state is keyed by hashing the canonical input its pipeline
//! printed, so that text must be the fingerprinted text.

use lcm::cfggen::{corpus, GenOptions};
use lcm::driver::{canonical_text, fingerprint_with_context, CANONICAL_NAME};
use lcm::ir::{parse_module, Function};

/// A speculative placement context, spelled the way the driver spells one
/// (entry weight, then every edge weight).
const SPEC: &str = "spec entry=7,3,4,0,9,1";

/// `(source, function, key with empty context, key with SPEC)`.
const KEYS: &[(&str, &str, u128, u128)] = &[
    (
        "guarded_loop.lcm",
        "guarded",
        0xdd96062739da2ab5d5c49965ef5753ac,
        0xfbfb0a50ffb1ed4bdc2ec036c79bc4f6,
    ),
    (
        "memory_alias.lcm",
        "memory_alias",
        0x0c2cef25978d605697775fb39d69a97f,
        0xde4bddd41359b31578740c3e6caefddd,
    ),
    (
        "memory_flat.lcm",
        "memory_flat",
        0x0aa00ee05b05e367328b301b6da39cd7,
        0x5a33af951ddc7f778de02040dbc313b5,
    ),
    (
        "memory_loop.lcm",
        "memory_loop",
        0x5ea3ed969240f171e7840e9916d46cda,
        0x1f9e0e606f90b5d4c18c90b552163018,
    ),
    (
        "corpus",
        "gen41",
        0xe5fe7a73918150b2fbf65a58c0fa47d9,
        0x9e95c726d2c66477766d55d82f0583e3,
    ),
    (
        "corpus",
        "gen42",
        0x264543689322d2d3d39db872b19e456e,
        0x1ddc43e4135223ceda2bee9f3b0cd9ac,
    ),
    (
        "corpus",
        "gen43",
        0x870f76c74a6b59d794d128b2231973be,
        0xe5c8c8e6ab0d128f1e77e58c8670a1bc,
    ),
    (
        "corpus",
        "gen44",
        0xc582845dd1a24b1037339ea486d00bfe,
        0x8d11e392b08e24d4d8db79278c03b37c,
    ),
    (
        "corpus",
        "gen45",
        0x096fed43cc4fa573b19bbe0d6e9d08cd,
        0x592bea4d8b4b89bd408d575ed963fe37,
    ),
    (
        "corpus",
        "gen46",
        0x429a6fc89ac47634095f58e48cedce3c,
        0x2fd6018e70fef7fcd69e0e75d9debd86,
    ),
];

fn functions() -> Vec<(String, Function)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lcm"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let m = parse_module(&text).unwrap();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        out.extend(m.iter().map(|f| (file.clone(), f.clone())));
    }
    let opts = GenOptions::with_memory(0.25);
    out.extend(
        corpus(41, 6, &opts)
            .into_iter()
            .map(|f| ("corpus".into(), f)),
    );
    out
}

#[test]
fn cache_keys_are_pinned() {
    let got: Vec<(String, String, u128, u128)> = functions()
        .into_iter()
        .map(|(src, f)| {
            let plain = fingerprint_with_context(&f, "").0;
            let spec = fingerprint_with_context(&f, SPEC).0;
            (src, f.name.clone(), plain, spec)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(src, name, plain, spec)| {
            format!("    (\"{src}\", \"{name}\", 0x{plain:032x}, 0x{spec:032x}),\n")
        })
        .collect();
    let want: Vec<(String, String, u128, u128)> = KEYS
        .iter()
        .map(|&(src, name, plain, spec)| (src.into(), name.into(), plain, spec))
        .collect();
    assert_eq!(got, want, "computed keys:\n{table}");
}

#[test]
fn printed_canonical_input_is_the_fingerprinted_text() {
    for (_, f) in functions() {
        let mut g = f.clone();
        g.name = CANONICAL_NAME.to_string();
        for context in ["", SPEC] {
            let (_, text) = fingerprint_with_context(&f, context);
            let printed = match context {
                "" => g.to_string(),
                _ => format!("{g}\n;; {context}"),
            };
            assert_eq!(text, printed, "fn {}", f.name);
            assert!(text.starts_with(&canonical_text(&f)));
        }
    }
}
