//! End-to-end tests of the `lcmopt batch` subcommand: determinism across
//! thread counts, the file / directory / stdin input paths, the batch
//! exit-code contract, and the persisted cache's per-entry quarantine.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const MODULE: &str = "fn first {
entry:
  br c, l, r
l:
  x = a + b
  jmp join
r:
  jmp join
join:
  y = a + b
  obs y
  ret
}

fn second {
entry:
  z = a * b
  obs z
  ret
}

fn third {
entry:
  x = a + b
  obs x
  ret
}
";

/// Runs `lcmopt batch` and returns `(exit_code, stdout, stderr)`.
fn batch(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lcmopt"))
        .arg("batch")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lcmopt batch");
    let write_result = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    if let Err(e) = write_result {
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::BrokenPipe,
            "unexpected stdin failure: {e}"
        );
    }
    let out = child.wait_with_output().expect("wait for lcmopt");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A scratch directory unique to this test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lcmopt_batch_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, contents).expect("write scratch file");
        path.display().to_string()
    }

    fn path(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn stdout_is_byte_identical_across_thread_counts() {
    let scratch = Scratch::new("determinism");
    let path = scratch.file("m.lcm", MODULE);
    for emit in ["text", "stats", "json"] {
        let mut baseline: Option<String> = None;
        for jobs in ["1", "4", "8"] {
            let (code, stdout, stderr) = batch(&[&path, "--jobs", jobs, "--emit", emit], "");
            assert_eq!(code, 0, "emit={emit} jobs={jobs}: {stderr}");
            match &baseline {
                None => baseline = Some(stdout),
                Some(b) => assert_eq!(b, &stdout, "emit={emit} differs at jobs={jobs}"),
            }
        }
    }
}

#[test]
fn cache_does_not_change_the_text() {
    let scratch = Scratch::new("cache_text");
    let path = scratch.file("m.lcm", MODULE);
    let (code_on, on, _) = batch(&[&path, "--cache", "on"], "");
    let (code_off, off, _) = batch(&[&path, "--cache", "off"], "");
    assert_eq!((code_on, code_off), (0, 0));
    assert_eq!(on, off);
    // Every function keeps its own name in the output.
    for name in ["first", "second", "third"] {
        assert!(on.contains(&format!("fn {name} {{")), "{on}");
    }
}

#[test]
fn stdin_module_is_accepted() {
    let (code, stdout, stderr) = batch(&["-"], MODULE);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("fn first {"));
    assert!(stdout.contains("fn third {"));
    // The join of `first` no longer recomputes `a + b`.
    let first = stdout.split("fn second").next().unwrap();
    let join = first.split("join:").nth(1).expect("join printed");
    assert!(!join.contains("a + b"), "{stdout}");
}

#[test]
fn directory_input_loads_every_lcm_file() {
    let scratch = Scratch::new("directory");
    scratch.file(
        "a.lcm",
        "fn from_a {\nentry:\n  x = a + b\n  obs x\n  ret\n}\n",
    );
    scratch.file(
        "b.lcm",
        "fn from_b {\nentry:\n  y = a * b\n  obs y\n  ret\n}\n",
    );
    scratch.file("ignored.txt", "not a module");
    let (code, stdout, stderr) = batch(&[&scratch.path(), "--emit", "stats"], "");
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains("batch: 2 functions (2 ok, 0 failed)"),
        "{stdout}"
    );
}

#[test]
fn parse_error_exits_3_with_position() {
    let scratch = Scratch::new("parse_error");
    let path = scratch.file("bad.lcm", "fn x {\nentry:\n  x = a +\n  ret\n}\n");
    let (code, stdout, stderr) = batch(&[&path], "");
    assert_eq!(code, 3, "{stderr}");
    assert!(stdout.is_empty());
    assert!(stderr.contains("bad.lcm:3:10"), "{stderr}");
}

#[test]
fn a_failing_function_reports_and_exits_5_after_printing() {
    // `island` is unreachable: parses, fails verification — its unit
    // fails with exit 5 while the healthy neighbours are still printed.
    let module = format!("{MODULE}\nfn bad {{\nentry:\n  ret\nisland:\n  jmp island\n}}\n");
    let (code, stdout, stderr) = batch(&["-"], &module);
    assert_eq!(code, 5, "{stderr}");
    assert!(
        stdout.contains("# fn bad: FAILED (invalid-input)"),
        "{stdout}"
    );
    assert!(stdout.contains("fn first {"), "{stdout}");
    assert!(stderr.contains("1 of 4 functions failed"), "{stderr}");
}

#[test]
fn emit_dot_renders_one_digraph_per_function() {
    let (code, stdout, stderr) = batch(&["-", "--emit", "dot"], MODULE);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout.matches("digraph ").count(), 3, "{stdout}");
}

#[test]
fn unknown_flag_exits_2() {
    let (code, _, stderr) = batch(&["--no-such-flag"], "");
    assert_eq!(code, 2, "{stderr}");
    // `wl` is not a solver: the diagnostic names the two that are.
    let (code, _, stderr) = batch(&["--solver", "wl", "-"], "");
    assert_eq!(code, 2, "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains("`wl`") && first.contains("rr or scc"),
        "{stderr}"
    );
}

#[test]
fn missing_path_exits_2() {
    let scratch = Scratch::new("missing");
    let path = scratch.0.join("absent.lcm").display().to_string();
    let (code, _, stderr) = batch(&[&path], "");
    assert_eq!(code, 2, "{stderr}");
}

/// Like [`batch`] but with raw bytes on stdin, for inputs that are not
/// valid UTF-8.
fn batch_bytes(args: &[&str], stdin: &[u8]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lcmopt"))
        .arg("batch")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lcmopt batch");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait for lcmopt");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn invalid_utf8_on_stdin_exits_3_with_span() {
    // A stray 0xFF two clean lines in: the diagnostic must carry the
    // spanned `<stdin>:line:col` shape and the parse exit code — the same
    // contract as a file input — not an unlabeled usage error.
    let (code, stdout, stderr) = batch_bytes(&["-"], b"fn a {\nentry:\n  \xff ret\n}\n");
    assert_eq!(code, 3, "{stderr}");
    assert!(stdout.is_empty());
    assert!(stderr.contains("<stdin>:3:3"), "{stderr}");
    assert!(stderr.contains("not valid UTF-8"), "{stderr}");
}

#[test]
fn invalid_utf8_file_exits_3_with_span() {
    let scratch = Scratch::new("utf8_file");
    let path = scratch.0.join("binary.lcm");
    std::fs::write(&path, b"fn a {\nentry:\n  \xff ret\n}\n").expect("write binary file");
    let (code, stdout, stderr) = batch(&[&path.display().to_string()], "");
    assert_eq!(code, 3, "{stderr}");
    assert!(stdout.is_empty());
    assert!(stderr.contains("binary.lcm:3:3"), "{stderr}");
    assert!(stderr.contains("not valid UTF-8"), "{stderr}");
}

#[test]
fn cache_file_persists_and_stats_show_lifetime_totals() {
    let scratch = Scratch::new("cache_file");
    let module = scratch.file("m.lcm", MODULE);
    let cache = scratch.0.join("plans.cache").display().to_string();

    // Cold run: all units computed, cache file written.
    let (code, cold, stderr) = batch(&[&module, "--cache-file", &cache], "");
    assert_eq!(code, 0, "{stderr}");

    // Warm restart: same bytes on stdout, and `--emit stats` carries the
    // lifetime line with the *accumulated* counters — the first run's
    // misses survive the restart in the cache footer.
    let (code, warm, stderr) = batch(&[&module, "--cache-file", &cache], "");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(cold, warm, "warm cache changed the answer");

    let (code, stats, stderr) = batch(&[&module, "--cache-file", &cache, "--emit", "stats"], "");
    assert_eq!(code, 0, "{stderr}");
    let lifetime = stats
        .lines()
        .find(|l| l.starts_with("lifetime: "))
        .unwrap_or_else(|| panic!("no lifetime line in:\n{stats}"));
    // Three runs over 3 functions: 3 misses from the cold run, then hits.
    assert!(lifetime.contains("6 hits"), "{lifetime}");
    assert!(lifetime.contains("3 misses"), "{lifetime}");
    assert!(lifetime.contains("0 quarantines"), "{lifetime}");

    // Without --cache-file there is no lifetime line.
    let (_, stats, _) = batch(&[&module, "--emit", "stats"], "");
    assert!(!stats.contains("lifetime:"), "{stats}");
}

#[test]
fn a_poisoned_cache_entry_is_quarantined_not_served_or_failed() {
    let scratch = Scratch::new("poisoned_entry");
    let module = scratch.file("m.lcm", MODULE);
    let cache_path = scratch.0.join("plans.cache");
    let cache = cache_path.display().to_string();
    let (code, want, stderr) = batch(&[&module], "");
    assert_eq!(code, 0, "{stderr}");
    let (code, _, stderr) = batch(&[&module, "--cache-file", &cache], "");
    assert_eq!(code, 0, "{stderr}");
    let output = |key: u128| {
        let (c, _) = lcm::driver::load_cache(&cache_path, 0).expect("valid cache file");
        let (_, e) = c.iter_fifo().find(|(k, _)| *k == key).expect("entry");
        e.output_text.clone()
    };
    let (before, _) = lcm::driver::load_cache(&cache_path, 0).expect("valid cache file");
    let key = lcm_faults::poison_persisted_entry(&cache_path, 4)
        .expect("poison the file")
        .expect("the file has entries");
    let (_, honest) = before.iter_fifo().find(|(k, _)| *k == key).expect("entry");
    assert_ne!(output(key), honest.output_text);

    // Each run re-validates the hit, quarantines the bad entry and
    // recomputes it, and the flush writes the honest entry back; the file
    // never makes a later run fail.
    for run in 0..2 {
        let (code, out, stderr) = batch(&[&module, "--cache-file", &cache], "");
        assert_eq!(code, 0, "run {run}: {stderr}");
        assert_eq!(out, want, "run {run}");
    }
    let (code, stats, stderr) = batch(&[&module, "--cache-file", &cache, "--emit", "stats"], "");
    assert_eq!(code, 0, "{stderr}");
    let lifetime = stats
        .lines()
        .find(|l| l.starts_with("lifetime: "))
        .unwrap_or_else(|| panic!("no lifetime line in:\n{stats}"));
    assert!(lifetime.contains(" 1 quarantines"), "{lifetime}");
    assert_eq!(output(key), honest.output_text);
}

/// Runs `lcmopt` with `args` and returns its stdout; the run must succeed.
fn lcmopt_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lcmopt"))
        .args(args)
        .output()
        .expect("spawn lcmopt");
    assert!(
        out.status.success(),
        "lcmopt {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `lcmopt FILE` and `lcmopt batch FILE --emit text` run the same checked
/// PRE call, so on a single-function file they print the same bytes: at
/// every placement and validation tier, over `testdata/` and a few
/// generated functions, one of them with an edge profile.
#[test]
fn single_function_files_print_like_batch() {
    use lcm::cfggen::{corpus, synthetic_profile, GenOptions};
    use lcm::ir::Module;

    let scratch = Scratch::new("file_parity");
    let mut files: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata"))
            .expect("read testdata")
            .map(|e| e.expect("testdata entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "lcm"))
            .map(|p| p.display().to_string())
            .collect();
    files.sort();
    assert!(files.len() >= 4, "{files:?}");
    for (i, f) in corpus(0xF11E, 3, &GenOptions::default())
        .into_iter()
        .enumerate()
    {
        let profile = (i == 0).then(|| synthetic_profile(&f, 7));
        let mut m = Module::new(vec![f]);
        if let Some(p) = profile {
            m.push_profile(p).expect("one profile");
        }
        files.push(scratch.file(&format!("gen{i}.lcm"), &m.to_string()));
    }
    for file in &files {
        for placement in [None, Some("lcm"), Some("bcm"), Some("spec")] {
            for tier in ["off", "fast", "full"] {
                let validate = format!("--validate={tier}");
                let mut single = Vec::new();
                if let Some(p) = placement {
                    single.extend(["--placement", p]);
                }
                single.extend([validate.as_str(), file.as_str()]);
                let mut batched = vec!["batch", file.as_str()];
                batched.extend(&single[..single.len() - 1]);
                batched.extend(["--emit", "text"]);
                assert_eq!(
                    lcmopt_stdout(&single),
                    lcmopt_stdout(&batched),
                    "{file} {placement:?} {tier}"
                );
            }
        }
    }
}
