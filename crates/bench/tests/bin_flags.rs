//! Every bench binary declares exactly the flags it reads, and its module
//! docs name each of them.
//!
//! A binary declares its flags to [`Cli::from_env`] and then reads them by
//! name. A name read but not declared is rejected on the command line
//! (and trips a debug assertion), and no test runs every binary with every
//! flag, so this test reads each binary's source instead.
//!
//! [`Cli::from_env`]: ca_ram_bench::Cli::from_env

use std::collections::BTreeSet;
use std::path::Path;

/// The text after each `open` in `src`, up to the next `close`.
fn spans<'s>(src: &'s str, open: &str, close: char) -> Vec<&'s str> {
    src.match_indices(open)
        .map(|(at, _)| {
            let rest = &src[at + open.len()..];
            &rest[..rest.find(close).expect("the call closes")]
        })
        .collect()
}

/// The whitespace-separated words of every string literal in `text`.
fn words(text: &str) -> BTreeSet<String> {
    let literals = text.split('"').skip(1).step_by(2);
    literals
        .flat_map(|l| l.split([' ', '\n', '\\']).filter(|w| !w.is_empty()))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_binary_declares_exactly_the_flags_it_reads_and_documents_them() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut bins = 0;
    for entry in std::fs::read_dir(dir).expect("src/bin lists") {
        let path = entry.expect("directory entry").path();
        let src = std::fs::read_to_string(&path).expect("binary source reads");
        let declared = words(spans(&src, "Cli::from_env(", ')')[0]);
        // The first literal of `.value("x")`, `.parse("x", ..)` and
        // `.flag("x")`, and every name forwarded by `passthrough(&[..])`.
        let mut read = words(&spans(&src, "passthrough(&[", ']').concat());
        for open in [".value(", ".parse(", ".flag("] {
            let names = spans(&src, open, ')').into_iter();
            read.extend(names.filter_map(|c| c.split('"').nth(1).map(str::to_string)));
        }
        let documented: BTreeSet<String> = (src.lines())
            .filter_map(|l| l.strip_prefix("//!"))
            .flat_map(|l| l.split("--").skip(1))
            .map(|w| {
                w.split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                    .next()
            })
            .filter_map(|w| w.filter(|w| w.starts_with(|c: char| c.is_ascii_lowercase())))
            .map(str::to_string)
            .collect();
        let bin = path.display();
        assert_eq!(read, declared, "{bin}: flags read vs declared");
        assert_eq!(documented, declared, "{bin}: flags documented vs declared");
        bins += 1;
    }
    assert_eq!(bins, 18, "one source per bench binary");
}
