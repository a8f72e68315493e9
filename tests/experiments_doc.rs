//! EXPERIMENTS.md quotes the §7 overhead experiment (E9) and the
//! telemetry overhead (E11) from the run that wrote the committed
//! `BENCH_overhead.json`. These tests hold the text to that artifact:
//! every per-row overhead and quartile of the E9 table, the mean, median
//! and max quoted under it and in the summary table, the summary's
//! verdict (the artifact's mean against the paper's 15%), and E11's two
//! query rows.

use std::path::Path;

#[derive(serde::Deserialize)]
struct Overhead {
    paper_claim_pct: f64,
    workloads: Vec<Row>,
    mean_overhead_pct: f64,
    median_overhead_pct: f64,
    max_overhead_pct: f64,
    within_paper_claim: bool,
    telemetry: Telemetry,
}

#[derive(serde::Deserialize)]
struct Row {
    name: String,
    overhead_pct: f64,
    overhead_q1_pct: f64,
    overhead_q3_pct: f64,
    pgraph_overhead_pct: f64,
    pgraph_overhead_q1_pct: f64,
    pgraph_overhead_q3_pct: f64,
}

#[derive(serde::Deserialize)]
struct Telemetry {
    cold_query_overhead_pct: f64,
    warm_query_overhead_pct: f64,
}

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn artifact() -> Overhead {
    serde_json::from_str(&read("BENCH_overhead.json")).expect("BENCH_overhead.json parses")
}

/// The lines of EXPERIMENTS.md's section whose heading starts with
/// `heading`, up to the next `## ` heading.
fn section(doc: &str, heading: &str) -> Vec<String> {
    let lines = doc.lines().skip_while(|l| !l.starts_with(heading)).skip(1);
    let body: Vec<String> = lines.take_while(|l| !l.starts_with("## ")).map(String::from).collect();
    assert!(!body.is_empty(), "EXPERIMENTS.md has no section `{heading}`");
    body
}

/// The trimmed cells of a markdown table line.
fn cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// The section's table as (header, data rows).
fn table(lines: &[String]) -> (Vec<&str>, Vec<Vec<&str>>) {
    let mut rows = lines.iter().filter(|l| l.starts_with('|')).map(|l| cells(l));
    let header = rows.next().expect("section has a table");
    let data = rows.filter(|r| !r[0].starts_with('-')).collect();
    (header, data)
}

/// The signed decimal numbers in `text`, in order:
/// `"+1.0% [-1.3, +2.6]"` reads `[1.0, -1.3, 2.6]`.
fn numbers(text: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        let signed =
            matches!(c, '+' | '-') && chars.peek().is_some_and(|&(_, d)| d.is_ascii_digit());
        if signed || c.is_ascii_digit() {
            let mut end = at + c.len_utf8();
            while let Some(&(i, d)) = chars.peek() {
                if !(d.is_ascii_digit() || d == '.') {
                    break;
                }
                end = i + 1;
                chars.next();
            }
            out.push(text[at..end].parse().expect("a decimal number"));
        }
    }
    out
}

/// The number quoted right after `key` in `text` (bold markers skipped).
fn quoted_after(text: &str, key: &str) -> f64 {
    let at = text.find(key).unwrap_or_else(|| panic!("no `{key}` in: {text}"));
    let rest = text[at + key.len()..].trim_start_matches(['*', ' ']);
    numbers(rest).first().copied().unwrap_or_else(|| panic!("no number after `{key}`: {text}"))
}

/// A one-decimal quote of a two-decimal artifact value differs from it
/// by at most 0.05 plus the artifact's own rounding.
fn assert_quoted(what: &str, quoted: f64, artifact: f64) {
    assert!(
        (quoted - artifact).abs() <= 0.0551,
        "{what}: EXPERIMENTS.md quotes {quoted}, BENCH_overhead.json has {artifact}"
    );
}

/// The mean, median and max quoted in `text` match the artifact's.
fn assert_summary(what: &str, text: &str, json: &Overhead) {
    assert_quoted(&format!("{what} mean"), quoted_after(text, "mean "), json.mean_overhead_pct);
    assert_quoted(
        &format!("{what} median"),
        quoted_after(text, "median "),
        json.median_overhead_pct,
    );
    assert_quoted(&format!("{what} max"), quoted_after(text, "max "), json.max_overhead_pct);
}

#[test]
fn e9_table_quotes_the_artifact() {
    let json = artifact();
    let lines = section(&read("EXPERIMENTS.md"), "## E9 ");
    let (header, rows) = table(&lines);
    let col = |name: &str| {
        header.iter().position(|h| *h == name).unwrap_or_else(|| panic!("no column `{name}`"))
    };
    let (log, total) = (col("log ovh % [q1, q3]"), col("total ovh % [q1, q3]"));
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    let expected: Vec<&str> = json.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, expected, "E9 table rows");
    for (row, w) in rows.iter().zip(&json.workloads) {
        let cells = [
            (log, [w.overhead_pct, w.overhead_q1_pct, w.overhead_q3_pct]),
            (total, [w.pgraph_overhead_pct, w.pgraph_overhead_q1_pct, w.pgraph_overhead_q3_pct]),
        ];
        for (c, want) in cells {
            let got = numbers(row[c]);
            assert_eq!(got.len(), 3, "{} `{}`: want median [q1, q3]", w.name, row[c]);
            for (what, (q, a)) in ["median", "q1", "q3"].iter().zip(got.into_iter().zip(want)) {
                assert_quoted(&format!("{} {} {what}", w.name, header[c]), q, a);
            }
        }
    }
    let note = lines
        .iter()
        .find(|l| l.starts_with("> logging overhead mean"))
        .expect("E9 note quoting mean/median/max");
    assert_summary("E9 note", note, &json);
}

#[test]
fn summary_row_quotes_the_artifact_and_its_verdict() {
    let json = artifact();
    let doc = read("EXPERIMENTS.md");
    let row = doc.lines().find(|l| l.starts_with("| E9 |")).expect("summary row for E9");
    let cells = cells(row);
    assert_eq!(cells.len(), 5, "Exp | anchor | paper says | measured | verdict");
    assert_summary("summary", cells[3], &json);
    let within = json.mean_overhead_pct < json.paper_claim_pct;
    assert_eq!(within, json.within_paper_claim, "the artifact's verdict is its mean's");
    let verdict = if within { "reproduced" } else { "not reproduced" };
    assert!(cells[4].starts_with(verdict), "verdict `{}`, artifact says `{verdict}`", cells[4]);
}

#[test]
fn e11_table_quotes_the_artifact() {
    let json = artifact();
    let lines = section(&read("EXPERIMENTS.md"), "## E11 ");
    let (header, rows) = table(&lines);
    let ovh = header.iter().position(|h| *h == "ovh %").expect("E11 `ovh %` column");
    for (probe, want) in [
        ("cold query", json.telemetry.cold_query_overhead_pct),
        ("warm query", json.telemetry.warm_query_overhead_pct),
    ] {
        let row = rows.iter().find(|r| r[0].starts_with(probe)).expect("E11 probe row");
        assert_quoted(&format!("E11 {probe}"), numbers(row[ovh])[0], want);
    }
}
