//! Fig. 5 — early-exit intersection ablation.
//!
//! Slowdown (×) of (a) disabling all early-exit intersections, and
//! (b) disabling only the second exit of `intersect-size-gt-bool`,
//! relative to the full configuration.
//!
//! The flags act only where the scalar intersection kernels run. Filter
//! rounds and degree-heuristic descents whose candidate sets pass the bit
//! path's gate (`lazymc_core`'s `bitrows` module: enough candidates, and
//! in the filters enough slack over θ) count by popcount in every
//! configuration. So on dense graphs, where most neighbourhoods take the
//! bit path, the ratios measure the early exits on the remaining small
//! sets only, and read closer to 1 than the paper's.
//!
//! Run: `cargo run -p lazymc-bench --release --bin fig5 [--test]`

use lazymc_bench::cli::{ratio, CommonArgs};
use lazymc_bench::{time_stats, Table};
use lazymc_core::{Config, LazyMc};

fn main() {
    let args = CommonArgs::parse();
    let mut table = Table::new(&["graph", "no early exits", "no second exit", "baseline[s]"]);
    for inst in args.instances() {
        let g = inst.build(args.scale);
        let run = |cfg: Config| {
            let (r, mean, _) = time_stats(args.reps, || LazyMc::new(cfg.clone()).solve(&g));
            (r.size(), mean.as_secs_f64())
        };
        let (omega, base) = run(Config::default());
        let (o1, t_noee) = run(Config {
            early_exit: false,
            second_exit: false,
            ..Config::default()
        });
        let (o2, t_nose) = run(Config {
            second_exit: false,
            ..Config::default()
        });
        assert_eq!(omega, o1, "{}: ablation changed omega", inst.name);
        assert_eq!(omega, o2, "{}: ablation changed omega", inst.name);
        table.row(vec![
            inst.name.to_string(),
            ratio(t_noee / base.max(1e-9)),
            ratio(t_nose / base.max(1e-9)),
            format!("{base:.3}"),
        ]);
    }
    println!(
        "Fig. 5: slowdown without early-exit intersections / without the\n\
         second exit of intersect-size-gt-bool, {:?} scale",
        args.scale
    );
    println!("{}", table.render());
}
