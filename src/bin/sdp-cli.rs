//! `sdp-cli` — an interactive optimizer shell.
//!
//! ```text
//! $ cargo run --release --bin sdp-cli
//! sdp> SELECT * FROM R24 f, R3 a WHERE f.c0 = a.c2
//! ... EXPLAIN output ...
//! sdp> \algorithm idp7
//! sdp> \execute SELECT * FROM R1 a, R2 b WHERE a.c0 = b.c1
//! ```
//!
//! Commands: `\help`, `\tables`, `\algorithm <name>`, `\catalog
//! <paper|skewed|scaled>`, `\execute <sql>`, `\quit`. Anything else is
//! parsed as SQL, optimized with the current algorithm, and explained.

use std::io::{BufRead, Write};

use sdp::prelude::*;

struct Shell {
    catalog: Catalog,
    catalog_name: String,
    database: Option<Database>,
    algorithm: Algorithm,
}

impl Shell {
    fn new() -> Self {
        Shell {
            catalog: Catalog::paper(),
            catalog_name: "paper".into(),
            database: None,
            algorithm: Algorithm::Sdp(SdpConfig::paper()),
        }
    }

    fn set_catalog(&mut self, name: &str) -> Result<(), String> {
        let (catalog, database) = match name {
            "paper" => (Catalog::paper(), None),
            "skewed" => (Catalog::paper_skewed(), None),
            "scaled" => {
                let c = scaled_catalog(12, 2000, 7);
                let db = Database::generate(&c, 42);
                (c, Some(db))
            }
            other => return Err(format!("unknown catalog `{other}` (paper|skewed|scaled)")),
        };
        self.catalog = catalog;
        self.database = database;
        self.catalog_name = name.to_string();
        Ok(())
    }

    fn set_algorithm(&mut self, name: &str) -> Result<(), String> {
        self.algorithm = match name {
            "dp" => Algorithm::Dp,
            "idp4" => Algorithm::Idp { k: 4 },
            "idp7" => Algorithm::Idp { k: 7 },
            "sdp" => Algorithm::Sdp(SdpConfig::paper()),
            "sdp-global" => Algorithm::Sdp(SdpConfig {
                partitioning: Partitioning::Global,
                skyline: SkylineOption::PairwiseUnion,
            }),
            "goo" => Algorithm::Goo,
            other => {
                return Err(format!(
                    "unknown algorithm `{other}` (dp|idp4|idp7|sdp|sdp-global|goo)"
                ))
            }
        };
        Ok(())
    }

    fn explain_sql(&self, sql: &str) {
        let query = match parse_query(&self.catalog, sql) {
            Ok(q) => q,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        };
        let optimizer = Optimizer::new(&self.catalog);
        match optimizer.optimize(&query, self.algorithm) {
            Ok(plan) => {
                println!(
                    "{} plan (cost {:.0}, est. {:.0} rows, {} plans costed, {:?}):",
                    self.algorithm.label(),
                    plan.cost,
                    plan.rows,
                    plan.stats.plans_costed,
                    plan.stats.elapsed
                );
                print!("{}", explain(&plan.root));
            }
            Err(e) => println!("optimization failed: {e}"),
        }
    }

    fn execute_sql(&self, sql: &str) {
        let Some(db) = &self.database else {
            println!("no data loaded — switch to the scaled catalog first: \\catalog scaled");
            return;
        };
        let query = match parse_query(&self.catalog, sql) {
            Ok(q) => q,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        };
        let optimizer = Optimizer::new(&self.catalog);
        match optimizer.optimize(&query, self.algorithm) {
            Ok(plan) => match execute(&plan.root, &query, &self.catalog, db) {
                Ok(rows) => {
                    println!(
                        "{} rows (estimated {:.0}); first rows:",
                        rows.len(),
                        plan.rows
                    );
                    for row in rows.iter().take(5) {
                        let cells: Vec<String> =
                            row.iter().take(8).map(|v| v.to_string()).collect();
                        println!(
                            "  ({}{})",
                            cells.join(", "),
                            if row.len() > 8 { ", …" } else { "" }
                        );
                    }
                }
                Err(e) => println!("execution failed: {e}"),
            },
            Err(e) => println!("optimization failed: {e}"),
        }
    }

    fn tables(&self) {
        println!(
            "catalog `{}`: {} relations",
            self.catalog_name,
            self.catalog.len()
        );
        for rel in self.catalog.relations() {
            println!(
                "  {:<6} {:>9} rows, {} columns, index on {}",
                rel.name,
                rel.cardinality,
                rel.columns.len(),
                rel.indexed_column
            );
        }
    }
}

const HELP: &str = "\
commands:
  \\help                 this text
  \\tables               list relations of the current catalog
  \\algorithm <name>     dp | idp4 | idp7 | sdp | sdp-global | goo
  \\catalog <name>       paper | skewed | scaled (scaled loads executable data)
  \\execute <sql>        optimize AND run (scaled catalog only)
  \\quit                 exit
anything else is SQL: SELECT * FROM <t> [<alias>], ... [WHERE ...] [ORDER BY a.c]";

fn main() {
    let mut shell = Shell::new();
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    if interactive {
        println!(
            "sdp-cli — Skyline Dynamic Programming shell ({} relations loaded). \\help for help.",
            shell.catalog.len()
        );
    }
    loop {
        if interactive {
            print!("sdp> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            let (head, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
            let rest = rest.trim();
            match head {
                "help" => println!("{HELP}"),
                "quit" | "q" | "exit" => break,
                "tables" => shell.tables(),
                "algorithm" => match shell.set_algorithm(rest) {
                    Ok(()) => println!("algorithm = {}", shell.algorithm.label()),
                    Err(e) => println!("{e}"),
                },
                "catalog" => match shell.set_catalog(rest) {
                    Ok(()) => println!(
                        "catalog = {} ({} relations{})",
                        shell.catalog_name,
                        shell.catalog.len(),
                        if shell.database.is_some() {
                            ", data loaded"
                        } else {
                            ""
                        }
                    ),
                    Err(e) => println!("{e}"),
                },
                "execute" => shell.execute_sql(rest),
                other => println!("unknown command \\{other} — \\help for help"),
            }
        } else {
            shell.explain_sql(line);
        }
    }
}

/// Minimal TTY detection without a dependency: honour `SDP_CLI_BATCH`
/// and fall back to assuming interactive.
fn atty_stdin() -> bool {
    std::env::var_os("SDP_CLI_BATCH").is_none()
}
