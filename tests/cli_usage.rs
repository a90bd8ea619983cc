//! The usage contract of every `lcmopt` command, table-driven: a flag
//! with no value, a bad number, an unknown flag and a second positional
//! input each exit 2 with a `lcmopt:` diagnostic and the command's own
//! usage appended on stderr; `-h`/`--help` exits 0 with that usage on
//! stdout. Every case fails while reading arguments, before any input is
//! read, any socket is touched or any thread is started.

use std::process::{Command, Stdio};

/// One command's usage cases.
struct Case {
    /// The subcommand (`None` for `lcmopt [OPTIONS] FILE`).
    command: Option<&'static str>,
    /// How the command's usage text starts.
    usage: &'static str,
    /// Flags that take a value, each given last with none.
    valued: &'static [&'static str],
    /// Numeric flags, each given a value that is not a number.
    numeric: &'static [&'static str],
    /// Arguments that name two positional inputs.
    two_inputs: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        command: None,
        usage: "usage: lcmopt [-p|--passes LIST]",
        valued: &[
            "-p",
            "--passes",
            "--placement",
            "-e",
            "--emit",
            "--run",
            "--fuel",
        ],
        numeric: &["--fuel"],
        two_inputs: &["a.lcm", "b.lcm"],
    },
    Case {
        command: Some("batch"),
        usage: "usage: lcmopt batch ",
        valued: &[
            "-j",
            "--jobs",
            "--placement",
            "--cache",
            "--cache-cap",
            "--cache-file",
            "-e",
            "--emit",
        ],
        numeric: &["--jobs", "--cache-cap"],
        two_inputs: &["a.lcm", "b.lcm"],
    },
    Case {
        command: Some("lift"),
        usage: "usage: lcmopt lift ",
        valued: &["-e", "--emit"],
        // `lift` takes no number.
        numeric: &[],
        two_inputs: &["a.l3a", "b.l3a"],
    },
    Case {
        command: Some("serve"),
        usage: "usage: lcmopt serve ",
        valued: &[
            "--socket",
            "--cache-file",
            "--workers",
            "--queue-cap",
            "--retry-after-ms",
            "--placement",
            "--cache",
            "--cache-cap",
        ],
        numeric: &[
            "--workers",
            "--queue-cap",
            "--retry-after-ms",
            "--cache-cap",
        ],
        // `serve` takes no positional input at all.
        two_inputs: &["a.lcm", "b.lcm"],
    },
    Case {
        command: Some("request"),
        usage: "usage: lcmopt request ",
        valued: &["--socket", "--deadline-ms", "--fuel"],
        numeric: &["--deadline-ms", "--fuel"],
        two_inputs: &["--socket", "s.sock", "a.lcm", "b.lcm"],
    },
    Case {
        command: Some("watch"),
        usage: "usage: lcmopt watch ",
        valued: &[
            "--interval-ms",
            "--iterations",
            "-o",
            "--output",
            "--placement",
        ],
        numeric: &["--interval-ms", "--iterations"],
        two_inputs: &["a.lcm", "b.lcm"],
    },
];

/// Runs `lcmopt [command] args` on empty stdin; returns
/// `(exit code, stdout, stderr)`.
fn lcmopt(command: Option<&str>, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lcmopt"))
        .args(command)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run lcmopt");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts that `args` is a usage error of `case`'s command.
fn assert_usage_error(case: &Case, args: &[&str]) {
    let (code, stdout, stderr) = lcmopt(case.command, args);
    let tag = format!("{:?} {args:?}", case.command);
    assert_eq!(code, 2, "{tag}: {stderr}");
    assert!(stdout.is_empty(), "{tag}: stdout {stdout:?}");
    assert!(stderr.starts_with("lcmopt: "), "{tag}: {stderr}");
    assert!(
        stderr.contains(case.usage),
        "{tag}: the command's usage is not appended: {stderr}"
    );
}

#[test]
fn a_flag_with_no_value_is_a_usage_error() {
    for case in CASES {
        for flag in case.valued {
            assert_usage_error(case, &[flag]);
        }
    }
}

#[test]
fn a_bad_number_is_a_usage_error() {
    for case in CASES {
        for flag in case.numeric {
            assert_usage_error(case, &[flag, "lots"]);
        }
    }
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    for case in CASES {
        assert_usage_error(case, &["--no-such-flag"]);
    }
}

#[test]
fn a_second_positional_input_is_a_usage_error() {
    for case in CASES {
        assert_usage_error(case, case.two_inputs);
    }
    // `watch` polls a file; stdin is not one.
    assert_usage_error(&CASES[5], &["-"]);
}

#[test]
fn help_prints_the_commands_usage_on_stdout() {
    for case in CASES {
        for flag in ["-h", "--help"] {
            let (code, stdout, stderr) = lcmopt(case.command, &[flag]);
            let tag = format!("{:?} {flag}", case.command);
            assert_eq!(code, 0, "{tag}: {stderr}");
            assert!(stdout.starts_with(case.usage), "{tag}: {stdout}");
            assert!(stdout.ends_with('\n'), "{tag}: {stdout:?}");
            assert!(stderr.is_empty(), "{tag}: {stderr}");
        }
    }
}
