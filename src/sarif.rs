//! Minimal SARIF 2.1.0 output for the lint driver.
//!
//! [SARIF](https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html)
//! is the interchange format code-scanning UIs (GitHub, VS Code)
//! ingest. This emits the minimal useful subset: one `run` with the
//! `ppd lint` tool descriptor, one reporting rule per diagnostic code
//! that actually fired, and one `result` per diagnostic carrying its
//! message, level, primary physical location and the spanned notes as
//! `relatedLocations`. Spanless help notes travel in the related
//! location list with no region, so no information is dropped relative
//! to the JSON formatter.
//!
//! The vendored `serde_derive` has no `rename` support and SARIF wants
//! camelCase keys plus a literal `$schema`, so the document is built
//! directly as a [`serde::Content`] tree and rendered by `serde_json`.

use ppd_analysis::lint::{default_passes, Diagnostic, Severity};
use ppd_lang::diag::SourceFile;
use serde::{Content, Serialize};

/// Hand-built JSON tree; `Serialize` by structural identity.
struct Raw(Content);

impl Serialize for Raw {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

fn obj(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(fields.into_iter().map(|(k, v)| (Content::str_key(k), v)).collect())
}

fn text(s: impl Into<String>) -> Content {
    Content::Str(s.into())
}

fn physical_location(file: &SourceFile, span: ppd_lang::Span) -> Content {
    let (line, col) = file.line_col(span.start);
    obj(vec![
        ("artifactLocation", obj(vec![("uri", text(file.name()))])),
        (
            "region",
            obj(vec![
                ("startLine", Content::U64(u64::from(line))),
                ("startColumn", Content::U64(u64::from(col))),
            ]),
        ),
    ])
}

/// Renders `diags` as a pretty-printed SARIF 2.1.0 document.
pub fn to_sarif(diags: &[Diagnostic], file: &SourceFile) -> String {
    // One rule per code that fired, in first-appearance order; pass
    // names double as the rules' shortDescription.
    let pass_names: Vec<(&'static str, &'static str)> =
        default_passes().iter().map(|p| (p.code(), p.name())).collect();
    let mut rule_ids: Vec<&'static str> = Vec::new();
    for d in diags {
        if !rule_ids.contains(&d.code) {
            rule_ids.push(d.code);
        }
    }
    let rules: Vec<Content> = rule_ids
        .iter()
        .map(|&code| {
            let name = pass_names.iter().find(|&&(c, _)| c == code).map_or(code, |&(_, n)| n);
            obj(vec![
                ("id", text(code)),
                ("name", text(name)),
                ("shortDescription", obj(vec![("text", text(name))])),
            ])
        })
        .collect();

    let results: Vec<Content> = diags
        .iter()
        .map(|d| {
            let level = match d.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            let rule_index = rule_ids.iter().position(|&c| c == d.code).unwrap_or(0);
            let related: Vec<Content> = d
                .notes
                .iter()
                .map(|n| {
                    let mut fields = vec![("message", obj(vec![("text", text(n.label.clone()))]))];
                    if let Some(span) = n.span {
                        fields.push(("physicalLocation", physical_location(file, span)));
                    }
                    obj(fields)
                })
                .collect();
            obj(vec![
                ("ruleId", text(d.code)),
                ("ruleIndex", Content::U64(rule_index as u64)),
                ("level", text(level)),
                ("message", obj(vec![("text", text(d.message.clone()))])),
                (
                    "locations",
                    Content::Seq(vec![obj(vec![(
                        "physicalLocation",
                        physical_location(file, d.span),
                    )])]),
                ),
                ("relatedLocations", Content::Seq(related)),
            ])
        })
        .collect();

    let doc = obj(vec![
        ("$schema", text("https://json.schemastore.org/sarif-2.1.0.json")),
        ("version", text("2.1.0")),
        (
            "runs",
            Content::Seq(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", text("ppd lint")),
                            ("informationUri", text("https://example.org/ppd")),
                            ("rules", Content::Seq(rules)),
                        ]),
                    )]),
                ),
                ("results", Content::Seq(results)),
            ])]),
        ),
    ]);
    serde_json::to_string_pretty(&Raw(doc)).expect("infallible tree render")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_analysis::lint::run_default;
    use ppd_analysis::Analyses;

    fn sarif_of(src: &str) -> (String, usize) {
        let rp = ppd_lang::compile(src).unwrap();
        let analyses = Analyses::run(&rp);
        let diags = run_default(&rp, &analyses, 1);
        let file = SourceFile::new("test.ppd", src);
        (to_sarif(&diags, &file), diags.len())
    }

    #[test]
    fn document_has_schema_version_and_one_result_per_diagnostic() {
        let (sarif, n) = sarif_of("shared int g; process A { g = 1; } process B { g = 2; }");
        assert!(n > 0);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(sarif.contains("\"$schema\""), "{sarif}");
        assert_eq!(sarif.matches("\"ruleId\"").count(), n, "{sarif}");
    }

    #[test]
    fn rules_are_unique_and_referenced_by_index() {
        let (sarif, _) = sarif_of(
            "shared int g; \
             process A { g = 1; } process B { g = 2; } process C { g = 3; }",
        );
        // Three PPD001 results but only one PPD001 rule entry.
        assert_eq!(sarif.matches("\"id\": \"PPD001\"").count(), 1, "{sarif}");
        assert!(sarif.contains("\"name\": \"race-candidate\""), "{sarif}");
        assert!(sarif.matches("\"ruleId\": \"PPD001\"").count() >= 3, "{sarif}");
    }

    #[test]
    fn locations_are_one_based_line_and_column() {
        let (sarif, _) = sarif_of("shared int g;\nprocess A { g = 1; }\nprocess B { g = 2; }");
        assert!(sarif.contains("\"startLine\": 2"), "{sarif}");
        assert!(sarif.contains("\"uri\": \"test.ppd\""), "{sarif}");
    }

    #[test]
    fn output_parses_back_as_json() {
        let (sarif, _) = sarif_of("shared int g; process A { g = 1; } process B { g = 2; }");
        #[derive(serde::Deserialize)]
        struct Doc {
            version: String,
            runs: Vec<RunShape>,
        }
        #[derive(serde::Deserialize)]
        struct RunShape {
            results: Vec<ResultShape>,
        }
        #[allow(non_snake_case)]
        #[derive(serde::Deserialize)]
        struct ResultShape {
            ruleId: String,
            level: String,
        }
        let doc: Doc = serde_json::from_str(&sarif).unwrap();
        assert_eq!(doc.version, "2.1.0");
        assert!(doc.runs[0].results.iter().all(|r| r.ruleId.starts_with("PPD")));
        assert!(doc.runs[0].results.iter().all(|r| r.level == "warning"));
    }
}
