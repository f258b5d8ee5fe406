//! An interactive faceted-search browser over a synthetic folksonomy —
//! the "TagExplorer"-style navigation of §III-C, at the model level.
//!
//! ```sh
//! cargo run -p dharma-integration --release --example faceted_search_cli
//! # or non-interactively:
//! echo "1
//! 2
//! q" | cargo run -p dharma-integration --release --example faceted_search_cli
//! ```
//!
//! At each step the top candidates are shown ranked by similarity to the
//! current tag; type a number to zoom in, `b` to start over, `q` to quit.

use std::io::{BufRead, Write};

use dharma_dataset::{GeneratorConfig, Scale};
use dharma_folksonomy::{Fg, SearchConfig, TagId};

fn main() {
    let dataset = GeneratorConfig::lastfm_like(Scale::Tiny, 77).generate();
    let fg = Fg::derive_exact(&dataset.trg);
    let cfg = SearchConfig {
        display_cap: Some(10),
        ..SearchConfig::default()
    };

    let seeds = dataset.most_popular_tags(10);
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();

    'session: loop {
        println!("\n=== faceted search — pick a seed tag ===");
        for (i, t) in seeds.iter().enumerate() {
            println!(
                "  [{i}] {} ({} resources)",
                dataset.tag_name(*t),
                dataset.trg.res_degree(*t)
            );
        }
        let seed_idx = match prompt_index(&mut lines, seeds.len()) {
            Pick::Index(i) => i,
            Pick::Back => continue 'session,
            Pick::Quit => break 'session,
        };
        let seed = seeds[seed_idx];

        // Manual narrowing loop mirroring FacetedSearch::run, with the
        // human picking the next tag.
        let mut candidates: Vec<(TagId, u64)> = fg.top_neighbors(seed, 10);
        let mut resources: Vec<u32> = dataset.trg.res_of(seed).map(|(r, _)| r.0).collect();
        resources.sort_unstable();
        let mut path = vec![seed];

        loop {
            println!(
                "\npath: {}  |  {} resources in scope",
                path.iter()
                    .map(|t| dataset.tag_name(*t))
                    .collect::<Vec<_>>()
                    .join(" → "),
                resources.len()
            );
            if resources.len() <= cfg.resource_stop {
                let shown: Vec<String> = resources
                    .iter()
                    .take(10)
                    .map(|r| dataset.res_name(dharma_folksonomy::ResId(*r)))
                    .collect();
                println!("✔ narrowed down — results: {shown:?}");
                continue 'session;
            }
            if candidates.len() <= cfg.tag_stop {
                println!("✔ no further refinements possible");
                continue 'session;
            }
            println!("refine with ('b' = restart, 'q' = quit):");
            for (i, (t, w)) in candidates.iter().enumerate() {
                println!("  [{i}] {} (sim {w})", dataset.tag_name(*t));
            }
            let pick = match prompt_index(&mut lines, candidates.len()) {
                Pick::Index(i) => i,
                Pick::Back => continue 'session,
                Pick::Quit => break 'session,
            };
            let (next, _) = candidates[pick];
            path.push(next);

            // T_i = T_{i-1} ∩ top(N_FG(next)), R_i = R_{i-1} ∩ Res(next).
            let fetched: Vec<(TagId, u64)> = fg.top_neighbors(next, 10);
            candidates = candidates
                .into_iter()
                .filter(|(t, _)| *t != next)
                .filter_map(|(t, _)| fetched.iter().find(|(f, _)| *f == t).map(|&(_, w)| (t, w)))
                .collect();
            candidates.sort_unstable_by_key(|&(_, w)| std::cmp::Reverse(w));
            let next_res: std::collections::HashSet<u32> =
                dataset.trg.res_of(next).map(|(r, _)| r.0).collect();
            resources.retain(|r| next_res.contains(r));
        }
    }
    println!("bye");
}

/// The user's choice at a prompt.
enum Pick {
    Index(usize),
    Back,
    Quit,
}

/// Reads lines until a valid pick, 'b', 'q', or EOF (treated as quit).
fn prompt_index(lines: &mut std::io::Lines<std::io::StdinLock<'_>>, len: usize) -> Pick {
    loop {
        print!("> ");
        std::io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else {
            return Pick::Quit;
        };
        let line = line.trim();
        match line {
            "q" | "quit" => return Pick::Quit,
            "b" => return Pick::Back,
            _ => {
                if let Ok(i) = line.parse::<usize>() {
                    if i < len {
                        return Pick::Index(i);
                    }
                }
                println!("enter a number 0..{}, 'b' or 'q'", len - 1);
            }
        }
    }
}
