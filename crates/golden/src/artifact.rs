//! Schema-versioned result artifacts.
//!
//! An [`Artifact`] is a named table with typed columns, written as
//! canonical JSON next to its CSV and markdown projections.
//! Each column carries a [`Class`] telling the differ how its cells must
//! compare across runs:
//!
//! * [`Class::Exact`] — bit-exact. Emulator numerics (FP64 error stats)
//!   and instruction/byte counters: a refactor must not move a single
//!   ulp or count.
//! * [`Class::Epsilon`] — relative tolerance. Simulated times, energy,
//!   EDP, throughputs: model-parameter tweaks may drift magnitudes
//!   slightly without invalidating the artifact.
//! * [`Class::Ordinal`] — directional claims (who wins, which pipe
//!   limits, which quadrant). The paper's observations must keep their
//!   *direction* even when magnitudes drift; any change is a failure
//!   regardless of how close the underlying numbers were.
//!
//! Columns flagged `key` identify a row across runs, so the differ can
//! report missing/extra rows by name instead of by index.

use std::collections::HashMap;
use std::path::Path;

use crate::json::{obj, Json};

/// The on-disk schema identifier. Bump when the artifact layout changes
/// incompatibly; `check` refuses to compare across schema versions.
pub const SCHEMA: &str = "cubie-golden/v1";

/// How cells of a column must compare across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Bit-exact: strings, integers, and `f64`s compared by bits.
    Exact,
    /// Relative epsilon: `|a-b| <= rel * max(|a|,|b|)`.
    Epsilon(f64),
    /// Directional/categorical claim: compared exactly, but a mismatch
    /// is reported as an inverted claim, not a numeric drift.
    Ordinal,
}

impl Class {
    fn tag(&self) -> &'static str {
        match self {
            Class::Exact => "exact",
            Class::Epsilon(_) => "epsilon",
            Class::Ordinal => "ordinal",
        }
    }
}

/// One typed column of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (CSV header / JSON field).
    pub name: String,
    /// Comparison class.
    pub class: Class,
    /// Whether this column is part of the row identity.
    pub key: bool,
}

impl Column {
    /// A bit-exact column.
    pub fn exact(name: &str) -> Self {
        Column {
            name: name.to_string(),
            class: Class::Exact,
            key: false,
        }
    }

    /// A relative-epsilon column with tolerance `rel`.
    pub fn eps(name: &str, rel: f64) -> Self {
        Column {
            name: name.to_string(),
            class: Class::Epsilon(rel),
            key: false,
        }
    }

    /// An ordinal (directional claim) column.
    pub fn ordinal(name: &str) -> Self {
        Column {
            name: name.to_string(),
            class: Class::Ordinal,
            key: false,
        }
    }

    /// Mark the column as part of the row key.
    pub fn key(mut self) -> Self {
        self.key = true;
        self
    }
}

/// The default relative tolerance for simulated times/energy/EDP.
pub const DEFAULT_EPS: f64 = 1e-6;

/// A named, schema-versioned result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Artifact name (= file stem under `results/` and `results/golden/`).
    pub name: String,
    /// Free-form provenance (scales, repeat counts…), part of the
    /// golden contract: `check` compares it bit-exactly.
    pub meta: Vec<(String, Json)>,
    /// Column schema.
    pub columns: Vec<Column>,
    /// Rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Json>>,
}

impl Artifact {
    /// A new, empty artifact.
    pub fn new(name: &str, columns: Vec<Column>) -> Self {
        Artifact {
            name: name.to_string(),
            meta: Vec::new(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Attach a provenance entry (compared bit-exactly by `check`).
    pub fn with_meta(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.meta.push((key.to_string(), value.into()));
        self
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the column schema.
    pub fn push(&mut self, row: Vec<Json>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "artifact `{}`: row arity {} != {} columns",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Every row's identity, in row order: key-column cells joined with
    /// ` / `, with a `#n` occurrence suffix when several rows share key
    /// cells (e.g. trace samples), so rows sharing key cells get distinct
    /// identities. A row whose key cells render empty (or a keyless
    /// schema) is `row {i}`. Key cells that already read like `x #1` or
    /// `row 1` can still repeat a key; [`crate::diff::diff`] then
    /// matches the first. One pass: occurrences are counted as the rows
    /// go by.
    pub fn row_keys(&self) -> Vec<String> {
        let mut seen: HashMap<String, usize> = HashMap::new();
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let parts: Vec<String> = self
                    .columns
                    .iter()
                    .zip(row)
                    .filter(|(c, _)| c.key)
                    .map(|(_, v)| v.render())
                    .collect();
                let base = parts.join(" / ");
                if base.is_empty() {
                    return format!("row {i}");
                }
                let n = seen.entry(base.clone()).or_insert(0);
                let key = if *n == 0 {
                    base
                } else {
                    format!("{base} #{n}")
                };
                *n += 1;
                key
            })
            .collect()
    }

    /// CSV projection: headers and rendered cells, so the CSV next to the
    /// JSON is a view of the same canonical data.
    pub fn csv(&self) -> (Vec<&str>, Vec<Vec<String>>) {
        let headers = self.columns.iter().map(|c| c.name.as_str()).collect();
        let rows = self
            .rows
            .iter()
            .map(|r| r.iter().map(Json::render).collect())
            .collect();
        (headers, rows)
    }

    /// Serialize to the canonical JSON document.
    pub fn to_json(&self) -> Json {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut pairs = vec![
                    ("name", Json::Str(c.name.clone())),
                    ("class", Json::Str(c.class.tag().to_string())),
                ];
                if let Class::Epsilon(rel) = c.class {
                    pairs.push(("rel_eps", Json::Float(rel)));
                }
                if c.key {
                    pairs.push(("key", Json::Bool(true)));
                }
                obj(pairs)
            })
            .collect();
        obj(vec![
            ("schema", SCHEMA.into()),
            ("artifact", Json::Str(self.name.clone())),
            (
                "meta",
                Json::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            ("columns", Json::Array(columns)),
            (
                "rows",
                Json::Array(self.rows.iter().map(|r| Json::Array(r.clone())).collect()),
            ),
        ])
    }

    /// Deserialize from a canonical JSON document.
    pub fn from_json(doc: &Json) -> Result<Artifact, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA {
            return Err(format!("schema `{schema}` != supported `{SCHEMA}`"));
        }
        let name = doc
            .get("artifact")
            .and_then(Json::as_str)
            .ok_or("missing `artifact`")?
            .to_string();
        let meta = match doc.get("meta") {
            Some(Json::Object(pairs)) => pairs.clone(),
            _ => return Err("missing `meta` object".to_string()),
        };
        let mut columns = Vec::new();
        for c in doc
            .get("columns")
            .and_then(Json::as_array)
            .ok_or("missing `columns`")?
        {
            let cname = c
                .get("name")
                .and_then(Json::as_str)
                .ok_or("column without `name`")?;
            let class = match c.get("class").and_then(Json::as_str) {
                Some("exact") => Class::Exact,
                Some("epsilon") => Class::Epsilon(
                    c.get("rel_eps")
                        .and_then(Json::as_f64)
                        .unwrap_or(DEFAULT_EPS),
                ),
                Some("ordinal") => Class::Ordinal,
                other => return Err(format!("column `{cname}`: unknown class {other:?}")),
            };
            columns.push(Column {
                name: cname.to_string(),
                class,
                key: c.get("key").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        let mut artifact = Artifact {
            name,
            meta,
            columns,
            rows: Vec::new(),
        };
        for row in doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("missing `rows`")?
        {
            let cells = row.as_array().ok_or("row is not an array")?.to_vec();
            if cells.len() != artifact.columns.len() {
                return Err(format!(
                    "row arity {} != {} columns",
                    cells.len(),
                    artifact.columns.len()
                ));
            }
            artifact.rows.push(cells);
        }
        Ok(artifact)
    }

    /// Write the artifact as pretty canonical JSON to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty_string())
    }

    /// Read an artifact from a JSON file.
    pub fn read(path: impl AsRef<Path>) -> Result<Artifact, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Artifact::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new(
            "sample",
            vec![
                Column::exact("workload").key(),
                Column::exact("device").key(),
                Column::eps("time_s", 1e-6),
                Column::ordinal("winner"),
                Column::exact("count"),
            ],
        )
        .with_meta("sparse_scale", 64usize)
        .with_meta("graph_scale", 512usize);
        a.push(vec![
            "gemm".into(),
            "H200".into(),
            1.5e-3.into(),
            "tc".into(),
            42u64.into(),
        ]);
        a.push(vec![
            "scan".into(),
            "H200".into(),
            2.5e-6.into(),
            "tc".into(),
            7u64.into(),
        ]);
        a
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let a = sample();
        let text = a.to_json().to_pretty_string();
        let back = Artifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn file_round_trip() {
        let a = sample();
        let path = std::env::temp_dir().join("cubie_golden_artifact_test.json");
        a.write(&path).unwrap();
        let back = Artifact::read(&path).unwrap();
        assert_eq!(a, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn row_keys_use_key_columns_and_disambiguate_duplicates() {
        let mut a = sample();
        a.push(vec![
            "gemm".into(),
            "H200".into(),
            9.0.into(),
            "cc".into(),
            1u64.into(),
        ]);
        assert_eq!(
            a.row_keys(),
            ["gemm / H200", "scan / H200", "gemm / H200 #1"]
        );
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut doc = sample().to_json();
        if let Json::Object(pairs) = &mut doc {
            pairs[0].1 = Json::Str("cubie-golden/v0".to_string());
        }
        assert!(Artifact::from_json(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut a = sample();
        a.push(vec!["x".into()]);
    }

    #[test]
    fn csv_projection_renders_cells() {
        let a = sample();
        let (headers, rows) = a.csv();
        assert_eq!(
            headers,
            vec!["workload", "device", "time_s", "winner", "count"]
        );
        assert_eq!(rows[0][2], "0.0015");
        assert_eq!(rows[0][4], "42");
    }
}
