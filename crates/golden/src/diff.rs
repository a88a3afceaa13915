//! The tolerance-aware differ.
//!
//! [`diff`] compares an *actual* artifact against its recorded *golden*
//! twin cell by cell, honouring each column's [`Class`]:
//!
//! * `Exact` cells must match bit-for-bit (floats compared on their IEEE
//!   bits, so a one-ulp flip in the MMA accumulation chain is caught);
//! * `Epsilon` cells may drift within the column's relative tolerance;
//! * `Ordinal` cells must match exactly, and a mismatch is reported as
//!   an inverted claim — the paper's observations keep their direction.
//!
//! Rows are matched by their key columns, so the report names rows
//! (`gemm / H200`) instead of indices and distinguishes changed cells
//! from missing/extra rows. A [`DiffReport`] aggregates per-artifact
//! results and renders both human-readable text and a canonical JSON
//! document (`results/golden_diff.json`, uploaded by CI).

use std::collections::{HashMap, HashSet};

use crate::artifact::{Artifact, Class};
use crate::json::{obj, Json};

/// One mismatched cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// Row identity (key columns joined, or `row N`).
    pub row: String,
    /// Column name.
    pub column: String,
    /// The column's comparison class.
    pub class: Class,
    /// Golden value (rendered).
    pub expected: String,
    /// Actual value (rendered).
    pub actual: String,
    /// Class-specific explanation.
    pub detail: String,
}

/// The comparison result for one artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactDiff {
    /// Artifact name.
    pub name: String,
    /// Structural problems: schema/meta mismatches, missing or extra
    /// rows, column changes. Any entry fails the artifact.
    pub structural: Vec<String>,
    /// Cell-level mismatches.
    pub cells: Vec<CellDiff>,
}

impl ArtifactDiff {
    /// Did the artifact match its golden?
    pub fn passed(&self) -> bool {
        self.structural.is_empty() && self.cells.is_empty()
    }
}

/// Compare `actual` against the recorded `golden`.
pub fn diff(golden: &Artifact, actual: &Artifact) -> ArtifactDiff {
    let mut d = diff_header(golden, actual);
    if d.structural.is_empty() {
        match_rows(golden, actual, &mut d);
    }
    d
}

/// The structural half of [`diff`]: name, column schema and meta. Rows
/// are only worth matching when this comes back clean.
fn diff_header(golden: &Artifact, actual: &Artifact) -> ArtifactDiff {
    let mut d = ArtifactDiff {
        name: golden.name.clone(),
        ..ArtifactDiff::default()
    };
    if golden.name != actual.name {
        d.structural.push(format!(
            "artifact name changed: golden `{}` vs actual `{}`",
            golden.name, actual.name
        ));
        return d;
    }
    if golden.columns != actual.columns {
        let names = |a: &Artifact| -> Vec<String> {
            a.columns
                .iter()
                .map(|c| format!("{}({})", c.name, tag(c.class)))
                .collect()
        };
        d.structural.push(format!(
            "column schema changed: golden [{}] vs actual [{}] — re-record the golden if intentional",
            names(golden).join(", "),
            names(actual).join(", ")
        ));
        return d;
    }
    for (k, v) in &golden.meta {
        match actual.meta.iter().find(|(ak, _)| ak == k) {
            None => d
                .structural
                .push(format!("meta `{k}` missing from the actual artifact")),
            Some((_, av)) if av != v => d.structural.push(format!(
                "meta `{k}` changed: golden {} vs actual {} — runs are not comparable",
                v.render(),
                av.render()
            )),
            Some(_) => {}
        }
    }
    for (k, _) in &actual.meta {
        if !golden.meta.iter().any(|(gk, _)| gk == k) {
            d.structural
                .push(format!("meta `{k}` not present in the golden"));
        }
    }
    d
}

/// Match rows by key identity, in linear time: each golden row is
/// compared with the first actual row carrying its key, in golden row
/// order, then actual keys absent from the golden are reported in
/// actual row order.
fn match_rows(golden: &Artifact, actual: &Artifact, d: &mut ArtifactDiff) {
    let golden_keys = golden.row_keys();
    let actual_keys = actual.row_keys();
    let mut first_actual: HashMap<&str, usize> = HashMap::with_capacity(actual_keys.len());
    for (j, key) in actual_keys.iter().enumerate() {
        first_actual.entry(key.as_str()).or_insert(j);
    }
    for (i, key) in golden_keys.iter().enumerate() {
        let Some(&j) = first_actual.get(key.as_str()) else {
            d.structural
                .push(format!("row `{key}` missing from the actual artifact"));
            continue;
        };
        diff_row(golden, key, &golden.rows[i], &actual.rows[j], d);
    }
    let in_golden: HashSet<&str> = golden_keys.iter().map(String::as_str).collect();
    for key in &actual_keys {
        if !in_golden.contains(key.as_str()) {
            d.structural
                .push(format!("row `{key}` not present in the golden"));
        }
    }
}

fn tag(class: Class) -> &'static str {
    match class {
        Class::Exact => "exact",
        Class::Epsilon(_) => "epsilon",
        Class::Ordinal => "ordinal",
    }
}

fn diff_row(a: &Artifact, key: &str, golden: &[Json], actual: &[Json], d: &mut ArtifactDiff) {
    for ((col, g), act) in a.columns.iter().zip(golden).zip(actual) {
        let mismatch = |detail: String| CellDiff {
            row: key.to_string(),
            column: col.name.clone(),
            class: col.class,
            expected: g.render(),
            actual: act.render(),
            detail,
        };
        match col.class {
            Class::Exact => {
                if !exact_eq(g, act) {
                    let detail = match (g, act) {
                        (Json::Float(e), Json::Float(v)) => format!(
                            "bit-exact class: {} vs {} ({} ulp apart)",
                            crate::json::fmt_f64(*e),
                            crate::json::fmt_f64(*v),
                            ulp_distance(*e, *v)
                        ),
                        _ => "bit-exact class: values differ".to_string(),
                    };
                    d.cells.push(mismatch(detail));
                }
            }
            Class::Epsilon(rel) => match (g.as_f64(), act.as_f64()) {
                (Some(e), Some(v)) => {
                    if !within_rel(e, v, rel) {
                        d.cells.push(mismatch(format!(
                            "relative error {:.3e} exceeds tolerance {rel:.1e}",
                            rel_err(e, v)
                        )));
                    }
                }
                _ => {
                    if !exact_eq(g, act) {
                        d.cells
                            .push(mismatch("non-numeric cell in an epsilon column".into()));
                    }
                }
            },
            Class::Ordinal => {
                if !exact_eq(g, act) {
                    d.cells.push(mismatch(format!(
                        "ordinal claim changed direction: `{}` became `{}`",
                        g.render(),
                        act.render()
                    )));
                }
            }
        }
    }
}

/// Bit-exact JSON equality: floats compare on their IEEE-754 bits (so
/// `0.0 != -0.0` and NaN payloads matter), everything else structurally.
pub fn exact_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Float(x), Json::Float(y)) => x.to_bits() == y.to_bits(),
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| exact_eq(a, b))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && exact_eq(va, vb))
        }
        _ => a == b,
    }
}

/// `|a-b| <= rel * max(|a|,|b|)`, with exact equality always accepted.
pub fn within_rel(a: f64, b: f64, rel: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

fn rel_err(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Distance in units-in-the-last-place between two same-sign finite
/// floats (saturating, for readable reports).
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.is_finite() && b.is_finite() && a.is_sign_positive() == b.is_sign_positive() {
        (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
    } else {
        u64::MAX
    }
}

/// Cache-validation oracle: require `actual` to reproduce `golden`
/// **bit-for-bit**, not merely within tolerance. Runs the regular
/// [`diff`] first (so a failure names the offending rows/cells in the
/// familiar report spelling), then compares the canonical
/// serializations byte-for-byte — catching drift an `Epsilon`/`Ordinal`
/// column class would have tolerated. This is the store-validation path
/// of the `cubied` content-addressed result store, where a hit must be
/// indistinguishable from a fresh run.
pub fn verify_bit_identical(golden: &Artifact, actual: &Artifact) -> Result<(), String> {
    let d = diff(golden, actual);
    if !d.passed() {
        return Err(DiffReport { artifacts: vec![d] }.render());
    }
    let g = golden.to_json().to_pretty_string();
    let a = actual.to_json().to_pretty_string();
    if g != a {
        return Err(format!(
            "artifact `{}` diffs clean but its canonical serialization differs \
             (a tolerance-class column absorbed real drift)",
            golden.name
        ));
    }
    Ok(())
}

/// The aggregated result of checking a set of artifacts.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Per-artifact results, in check order.
    pub artifacts: Vec<ArtifactDiff>,
}

impl DiffReport {
    /// Did every artifact pass?
    pub fn passed(&self) -> bool {
        self.artifacts.iter().all(ArtifactDiff::passed)
    }

    /// Human-readable per-artifact report with the offending cells.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.artifacts {
            if a.passed() {
                out.push_str(&format!("PASS  {}\n", a.name));
                continue;
            }
            out.push_str(&format!(
                "FAIL  {} ({} structural, {} cell mismatches)\n",
                a.name,
                a.structural.len(),
                a.cells.len()
            ));
            for s in &a.structural {
                out.push_str(&format!("      ! {s}\n"));
            }
            const MAX_CELLS: usize = 20;
            for c in a.cells.iter().take(MAX_CELLS) {
                out.push_str(&format!(
                    "      x [{}] {} · {}: expected {}, got {} — {}\n",
                    tag(c.class),
                    c.row,
                    c.column,
                    c.expected,
                    c.actual,
                    c.detail
                ));
            }
            if a.cells.len() > MAX_CELLS {
                out.push_str(&format!(
                    "      … and {} more cell mismatches\n",
                    a.cells.len() - MAX_CELLS
                ));
            }
        }
        let failed = self.artifacts.iter().filter(|a| !a.passed()).count();
        out.push_str(&format!(
            "\n{} of {} artifacts passed.\n",
            self.artifacts.len() - failed,
            self.artifacts.len()
        ));
        out
    }

    /// Canonical JSON for `results/golden_diff.json`.
    pub fn to_json(&self) -> Json {
        let artifacts = self
            .artifacts
            .iter()
            .map(|a| {
                obj(vec![
                    ("artifact", Json::Str(a.name.clone())),
                    ("passed", Json::Bool(a.passed())),
                    (
                        "structural",
                        Json::Array(a.structural.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                    (
                        "cells",
                        Json::Array(
                            a.cells
                                .iter()
                                .map(|c| {
                                    obj(vec![
                                        ("row", Json::Str(c.row.clone())),
                                        ("column", Json::Str(c.column.clone())),
                                        ("class", Json::Str(tag(c.class).to_string())),
                                        ("expected", Json::Str(c.expected.clone())),
                                        ("actual", Json::Str(c.actual.clone())),
                                        ("detail", Json::Str(c.detail.clone())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("schema", "cubie-golden-diff/v1".into()),
            ("passed", Json::Bool(self.passed())),
            ("artifacts", Json::Array(artifacts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Column;
    use proptest::prelude::*;

    fn base() -> Artifact {
        let mut a = Artifact::new(
            "t",
            vec![
                Column::exact("who").key(),
                Column::exact("err"),
                Column::eps("time_s", 1e-3),
                Column::ordinal("winner"),
            ],
        )
        .with_meta("sparse_scale", 64usize);
        a.push(vec![
            "gemm".into(),
            3.119e-13.into(),
            1.0e-3.into(),
            "tc".into(),
        ]);
        a.push(vec!["scan".into(), 0.0.into(), 2.0e-6.into(), "tc".into()]);
        a
    }

    #[test]
    fn identical_artifacts_pass() {
        assert!(diff(&base(), &base()).passed());
    }

    #[test]
    fn bit_exact_class_rejects_a_one_ulp_flip() {
        let golden = base();
        let mut actual = base();
        let flipped = f64::from_bits(3.119e-13_f64.to_bits() ^ 1);
        actual.rows[0][1] = Json::Float(flipped);
        let d = diff(&golden, &actual);
        assert!(!d.passed());
        assert_eq!(d.cells.len(), 1);
        let c = &d.cells[0];
        assert_eq!((c.row.as_str(), c.column.as_str()), ("gemm", "err"));
        assert!(c.detail.contains("1 ulp"), "detail: {}", c.detail);
    }

    #[test]
    fn epsilon_class_accepts_drift_inside_tolerance() {
        let golden = base();
        let mut actual = base();
        actual.rows[0][2] = Json::Float(1.0e-3 * (1.0 + 5e-4)); // rel 5e-4 < 1e-3
        assert!(diff(&golden, &actual).passed());
    }

    #[test]
    fn epsilon_class_rejects_drift_outside_tolerance() {
        let golden = base();
        let mut actual = base();
        actual.rows[0][2] = Json::Float(1.0e-3 * 1.01); // rel 1e-2 > 1e-3
        let d = diff(&golden, &actual);
        assert_eq!(d.cells.len(), 1);
        assert!(d.cells[0].detail.contains("tolerance"));
    }

    #[test]
    fn ordinal_class_rejects_a_who_wins_inversion() {
        let golden = base();
        let mut actual = base();
        actual.rows[1][3] = "baseline".into();
        let d = diff(&golden, &actual);
        assert_eq!(d.cells.len(), 1);
        assert!(
            d.cells[0].detail.contains("direction"),
            "{}",
            d.cells[0].detail
        );
    }

    #[test]
    fn missing_and_extra_rows_are_structural() {
        let golden = base();
        let mut actual = base();
        actual.rows.remove(1);
        actual.push(vec!["spmv".into(), 0.0.into(), 1.0.into(), "tc".into()]);
        let d = diff(&golden, &actual);
        assert_eq!(d.structural.len(), 2);
        assert!(d.structural[0].contains("scan"));
        assert!(d.structural[1].contains("spmv"));
    }

    #[test]
    fn meta_change_means_runs_not_comparable() {
        let golden = base();
        let actual = {
            let mut a = base();
            a.meta[0].1 = Json::Int(32);
            a
        };
        let d = diff(&golden, &actual);
        assert!(!d.passed());
        assert!(d.structural[0].contains("not comparable"));
    }

    #[test]
    fn column_schema_change_asks_for_rerecord() {
        let golden = base();
        let mut actual = base();
        actual.columns[2] = Column::eps("time_s", 1e-2);
        let d = diff(&golden, &actual);
        assert!(d.structural[0].contains("re-record"));
    }

    #[test]
    fn report_renders_pass_fail_lines() {
        let mut r = DiffReport::default();
        r.artifacts.push(diff(&base(), &base()));
        let mut bad = base();
        bad.rows[1][3] = "baseline".into();
        r.artifacts.push(diff(&base(), &bad));
        let text = r.render();
        assert!(text.contains("PASS  t"));
        assert!(text.contains("FAIL  t"));
        assert!(text.contains("1 of 2 artifacts passed"));
        assert!(!r.passed());
        // The JSON report carries the same verdicts.
        let doc = r.to_json();
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
    }

    #[test]
    fn verify_bit_identical_rejects_tolerated_epsilon_drift() {
        assert!(verify_bit_identical(&base(), &base()).is_ok());
        // A one-ulp flip in an Exact column fails via the differ, with
        // the familiar cell report.
        let mut flipped = base();
        flipped.rows[0][1] = Json::Float(f64::from_bits(3.119e-13_f64.to_bits() ^ 1));
        let err = verify_bit_identical(&base(), &flipped).unwrap_err();
        assert!(err.contains("FAIL  t"), "{err}");
        // Drift inside the Epsilon tolerance passes the differ but must
        // still fail bit-identity — the store serves bytes, not bounds.
        let mut drifted = base();
        drifted.rows[0][2] = Json::Float(1.0e-3 * (1.0 + 5e-4));
        assert!(diff(&base(), &drifted).passed());
        let err = verify_bit_identical(&base(), &drifted).unwrap_err();
        assert!(err.contains("canonical serialization"), "{err}");
    }

    /// The quadratic row identity [`Artifact::row_keys`] replaced: the
    /// key cells of every earlier row are rendered again to count
    /// occurrences.
    fn quadratic_row_key(a: &Artifact, i: usize) -> String {
        let key_of = |row: &[Json]| -> String {
            let parts: Vec<String> = a
                .columns
                .iter()
                .zip(row)
                .filter(|(c, _)| c.key)
                .map(|(_, v)| v.render())
                .collect();
            if parts.is_empty() {
                String::new()
            } else {
                parts.join(" / ")
            }
        };
        let base = key_of(&a.rows[i]);
        let occurrence = a.rows[..i].iter().filter(|r| key_of(r) == base).count();
        match (base.is_empty(), occurrence) {
            (true, _) => format!("row {i}"),
            (false, 0) => base,
            (false, n) => format!("{base} #{n}"),
        }
    }

    /// [`diff`] with the quadratic matcher it replaced: `position` and
    /// `contains` over the key vectors.
    fn quadratic_diff(golden: &Artifact, actual: &Artifact) -> ArtifactDiff {
        let mut d = diff_header(golden, actual);
        if !d.structural.is_empty() {
            return d;
        }
        let golden_keys: Vec<String> = (0..golden.rows.len())
            .map(|i| quadratic_row_key(golden, i))
            .collect();
        let actual_keys: Vec<String> = (0..actual.rows.len())
            .map(|i| quadratic_row_key(actual, i))
            .collect();
        for (i, key) in golden_keys.iter().enumerate() {
            let Some(j) = actual_keys.iter().position(|k| k == key) else {
                d.structural
                    .push(format!("row `{key}` missing from the actual artifact"));
                continue;
            };
            diff_row(golden, key, &golden.rows[i], &actual.rows[j], &mut d);
        }
        for key in &actual_keys {
            if !golden_keys.contains(key) {
                d.structural
                    .push(format!("row `{key}` not present in the golden"));
            }
        }
        d
    }

    /// One random row: a string key cell from a small alphabet, an
    /// integer key cell from three values, and one cell per comparison
    /// class. The alphabet has an empty word (a `row {i}` key) and words
    /// that spell other rows' keys (`gemm #1`, `row 1`), so an artifact
    /// can hold the same key twice.
    fn arb_row() -> impl Strategy<Value = Vec<Json>> {
        (0usize..5, 0i64..3, -1.0..1.0f64, 0.5..2.0f64, any::<bool>()).prop_map(
            |(word, n, err, time, tc)| {
                vec![
                    ["gemm", "scan", "", "gemm #1", "row 1"][word].into(),
                    Json::Int(n.into()),
                    err.into(),
                    time.into(),
                    if tc { "tc" } else { "cc" }.into(),
                ]
            },
        )
    }

    /// A random artifact with 0, 1 or 2 key columns (0 is a keyless
    /// schema) and either a few rows or more than 500.
    fn arb_artifact() -> impl Strategy<Value = Artifact> {
        let rows = prop_oneof![0usize..40, 501usize..600]
            .prop_flat_map(|n| prop::collection::vec(arb_row(), n));
        (0usize..3, rows).prop_map(|(keys, rows)| {
            let key = |c: Column, k: bool| if k { c.key() } else { c };
            let mut a = Artifact::new(
                "t",
                vec![
                    key(Column::exact("workload"), keys >= 1),
                    key(Column::exact("case"), keys >= 2),
                    Column::exact("err"),
                    Column::eps("time_s", 1e-3),
                    Column::ordinal("winner"),
                ],
            );
            for row in rows {
                a.push(row);
            }
            a
        })
    }

    /// Edits turning a golden into an actual: cell edits in the first
    /// 500 rows (one-ulp `err` flips, `time_s` drift inside and outside
    /// tolerance, `winner` inversions), a one-ulp `err` flip beyond row
    /// 500, swapped rows, dropped rows and extra rows.
    #[allow(clippy::type_complexity)]
    fn arb_edits() -> impl Strategy<
        Value = (
            Vec<(prop::sample::Index, usize)>,
            prop::sample::Index,
            Vec<(prop::sample::Index, prop::sample::Index)>,
            Vec<prop::sample::Index>,
            Vec<Vec<Json>>,
        ),
    > {
        let index = any::<prop::sample::Index>;
        (
            prop::collection::vec((index(), 0usize..4), 0..6),
            index(),
            prop::collection::vec((index(), index()), 0..8),
            prop::collection::vec(index(), 0..4),
            prop::collection::vec(arb_row(), 0..4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The linear matcher reports exactly what the quadratic one
        /// did: the same structural messages and cell diffs, in order.
        #[test]
        fn linear_matcher_agrees_with_the_quadratic_one(
            golden in arb_artifact(),
            (cell_edits, far, swaps, drops, extras) in arb_edits(),
        ) {
            let mut actual = golden.clone();
            let n = actual.rows.len();
            if n > 0 {
                for (at, kind) in cell_edits {
                    let row = &mut actual.rows[at.index(n.min(500))];
                    match kind {
                        0 => row[2] = flip_ulp(&row[2]),
                        1 => row[3] = Json::Float(row[3].as_f64().unwrap() * (1.0 + 5e-4)),
                        2 => row[3] = Json::Float(row[3].as_f64().unwrap() * 1.01),
                        _ => row[4] = "baseline".into(),
                    }
                }
                for (a, b) in swaps {
                    actual.rows.swap(a.index(n), b.index(n));
                }
            }
            if n > 500 {
                let row = &mut actual.rows[500 + far.index(n - 500)];
                row[2] = flip_ulp(&row[2]);
            }
            for at in drops {
                if !actual.rows.is_empty() {
                    actual.rows.remove(at.index(actual.rows.len()));
                }
            }
            for row in extras {
                actual.push(row);
            }
            let d = diff(&golden, &actual);
            prop_assert_eq!(&d, &quadratic_diff(&golden, &actual));
            // With every key distinct, rows pair up one to one, so the
            // flip beyond row 500 cannot hide.
            if unique_keys(&golden) && unique_keys(&actual) {
                prop_assert!(n <= 500 || !d.passed(), "the flip beyond row 500 went unreported");
                prop_assert!(diff(&golden, &golden).passed());
            }
        }
    }

    fn unique_keys(a: &Artifact) -> bool {
        let keys = a.row_keys();
        keys.iter().collect::<HashSet<_>>().len() == keys.len()
    }

    fn flip_ulp(cell: &Json) -> Json {
        Json::Float(f64::from_bits(cell.as_f64().unwrap().to_bits() ^ 1))
    }

    #[test]
    fn negative_zero_is_not_zero_in_exact_class() {
        let golden = base();
        let mut actual = base();
        actual.rows[1][1] = Json::Float(-0.0);
        assert!(!diff(&golden, &actual).passed());
    }
}
