//! Tables 2, 3 and 4: the workload inventory, the BFS graphs and the
//! SpMV/SpGEMM matrices — published metadata next to what the synthetic
//! generators actually produce at the current scale (through the prep
//! store, so a warm store loads the inputs instead of regenerating them).

use cubie_analysis::report;
use cubie_bench::{artifacts, graph_scale, sparse_scale, sweep};
use cubie_kernels::Workload;

fn main() {
    // Table 2: workloads. Labels come from the sweep engine's cache
    // (tiny 1/64, 1/1024 scale: the labels are scale-independent), so a
    // process that also sweeps pays the preparation once.
    println!("# Table 2 — the Cubie workloads\n");
    let rows: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| {
            let s = w.spec();
            let labels = sweep::case_labels(*w, 64, 1024);
            vec![
                s.name.to_string(),
                format!("Q{}", s.quadrant),
                s.dwarf.to_string(),
                s.baseline.unwrap_or("-").to_string(),
                labels.join(", "),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &["kernel", "quadrant", "dwarf", "baseline", "five test cases"],
            &rows
        )
    );

    // Table 3: graphs.
    let gs = graph_scale();
    println!("# Table 3 — BFS graphs (generated at scale 1/{gs})\n");
    let rows: Vec<Vec<String>> = cubie_prep::table3_graphs(gs)
        .into_iter()
        .map(|(info, g)| {
            vec![
                info.name.to_string(),
                info.group.to_string(),
                format!("{}", info.vertices),
                format!("{}", info.edges),
                format!("{}", g.n),
                format!("{}", g.num_arcs()),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &[
                "graph",
                "group",
                "#vertices (paper)",
                "#edges (paper)",
                "#vertices (gen)",
                "#arcs (gen)"
            ],
            &rows
        )
    );

    // Table 4: matrices.
    let ss = sparse_scale();
    println!("# Table 4 — SpMV/SpGEMM matrices (generated at scale 1/{ss})\n");
    let rows: Vec<Vec<String>> = cubie_prep::table4_matrices(ss)
        .into_iter()
        .map(|(info, m)| {
            vec![
                info.name.to_string(),
                info.group.to_string(),
                format!("{}", info.rows),
                format!("{}", info.nnz),
                format!("{}", m.rows),
                format!("{}", m.nnz()),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &[
                "matrix",
                "group",
                "#rows (paper)",
                "#nnz (paper)",
                "#rows (gen)",
                "#nnz (gen)"
            ],
            &rows
        )
    );

    artifacts::emit_and_announce(&artifacts::table234(ss, gs));
}
