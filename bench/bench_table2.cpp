// Regenerates the paper's Table 2: average communication requirements of the
// 2D fine-grain hypergraph model versus the 1D standard-graph and 1D
// column-net hypergraph models, for K in {16, 32, 64} on the 14-matrix
// suite. For each (matrix, K, model) it reports
//   tot    — total communication volume / M        (paper's "tot")
//   max    — max per-processor volume / M          (paper's "max")
//   #msgs  — average messages handled per processor
//   time   — partitioning seconds, with the value normalized to the
//            graph-model partitioner in parentheses (as the paper prints)
// and closes with the per-K and overall averages plus the paper's headline
// percentages recomputed from our data.
//
// Knobs: FGHP_SCALE, FGHP_SEEDS, FGHP_K, FGHP_MATRICES, FGHP_FULL
// (see bench_common.hpp). Defaults run every matrix at paper scale, 1 seed.
// Flags: --json <path> writes the per-run records and the per-K / overall
// averages as JSON.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

namespace {

using fghp::bench::Model;

/// Paper Table 2 "tot" reference values: (matrix, K) -> {graph, hyper1d, fg2d}.
const std::map<std::pair<std::string, fghp::idx_t>, std::array<double, 3>> kPaperTot = {
    {{"sherman3", 16}, {0.31, 0.25, 0.25}},   {{"sherman3", 32}, {0.46, 0.37, 0.36}},
    {{"sherman3", 64}, {0.64, 0.53, 0.50}},   {{"bcspwr10", 16}, {0.09, 0.08, 0.07}},
    {{"bcspwr10", 32}, {0.15, 0.13, 0.12}},   {{"bcspwr10", 64}, {0.23, 0.22, 0.19}},
    {{"ken-11", 16}, {0.93, 0.60, 0.14}},     {{"ken-11", 32}, {1.17, 0.74, 0.29}},
    {{"ken-11", 64}, {1.45, 0.93, 0.48}},     {{"nl", 16}, {1.70, 1.06, 0.74}},
    {{"nl", 32}, {2.25, 1.49, 1.05}},         {{"nl", 64}, {3.04, 2.20, 1.38}},
    {{"ken-13", 16}, {0.94, 0.55, 0.08}},     {{"ken-13", 32}, {1.17, 0.63, 0.17}},
    {{"ken-13", 64}, {1.40, 0.79, 0.39}},     {{"cq9", 16}, {1.70, 0.99, 0.50}},
    {{"cq9", 32}, {2.43, 1.45, 0.79}},        {{"cq9", 64}, {3.73, 2.33, 1.22}},
    {{"co9", 16}, {1.50, 0.94, 0.47}},        {{"co9", 32}, {2.07, 1.36, 0.74}},
    {{"co9", 64}, {3.10, 2.17, 1.09}},        {{"pltexpA4-6", 16}, {0.34, 0.30, 0.20}},
    {{"pltexpA4-6", 32}, {0.55, 0.51, 0.29}}, {{"pltexpA4-6", 64}, {0.98, 0.86, 0.51}},
    {{"vibrobox", 16}, {1.24, 1.06, 0.79}},   {{"vibrobox", 32}, {1.73, 1.53, 1.06}},
    {{"vibrobox", 64}, {2.28, 2.08, 1.43}},   {{"cre-d", 16}, {2.82, 2.00, 1.15}},
    {{"cre-d", 32}, {4.12, 2.90, 1.77}},      {{"cre-d", 64}, {5.95, 4.14, 2.55}},
    {{"cre-b", 16}, {2.62, 2.02, 1.01}},      {{"cre-b", 32}, {3.90, 2.88, 1.55}},
    {{"cre-b", 64}, {5.73, 4.08, 2.26}},      {{"world", 16}, {0.59, 0.54, 0.23}},
    {{"world", 32}, {0.84, 0.76, 0.41}},      {{"world", 64}, {1.19, 1.06, 0.62}},
    {{"mod2", 16}, {0.57, 0.52, 0.24}},       {{"mod2", 32}, {0.79, 0.72, 0.41}},
    {{"mod2", 64}, {1.14, 1.02, 0.62}},       {{"finan512", 16}, {0.20, 0.16, 0.07}},
    {{"finan512", 32}, {0.27, 0.21, 0.10}},   {{"finan512", 64}, {0.38, 0.31, 0.20}},
};

double paper_tot(const std::string& name, fghp::idx_t k, Model m) {
  const auto it = kPaperTot.find({name, k});
  if (it == kPaperTot.end()) return 0.0;
  return it->second[static_cast<std::size_t>(m)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fghp;
  const bench::BenchEnv env = bench::load_env();
  constexpr Model kModels[] = {Model::kGraph1d, Model::kHypergraph1d, Model::kFineGrain2d};
  const ArgParser args(argc, argv);
  Observability obs(args, "bench_table2", "bench");
  bench::JsonWriter json;
  json.scalar("table", std::string("table2"));
  json.scalar("scale", env.scale);
  json.scalar("seeds", static_cast<long long>(env.seeds));

  std::printf(
      "Table 2 — average communication requirements of the 2D fine-grain model vs the\n"
      "1D graph and 1D hypergraph models (scale=%.2f, seeds=%d, threads=%d)\n"
      "'tot' and 'max' are word counts scaled by the number of rows; '(paper)' is the\n"
      "corresponding Table 2 value; 'time' normalization is vs the graph model.\n"
      "Seeds sweep in parallel (FGHP_THREADS=1 for a serial sweep); averages are\n"
      "identical at any thread count.\n\n",
      env.scale, static_cast<int>(env.seeds), ThreadPool::default_num_threads());

  Table t({"name", "K", "model", "tot", "(paper)", "max", "#msgs", "time[s]", "(norm)",
           "imbal%"});

  // Accumulators for the averages section, per (kIndex, model).
  struct Acc {
    double tot = 0, max = 0, msgs = 0, time = 0, norm = 0;
    int n = 0;
  };
  std::map<std::pair<idx_t, int>, Acc> acc;

  for (const auto& name : env.matrices) {
    const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
    for (idx_t K : env.kValues) {
      double graphTime = 0.0;
      for (const Model m : kModels) {
        const bench::RunRecord r = bench::run_avg(a, m, K, env.seeds);
        if (m == Model::kGraph1d) graphTime = r.seconds;
        const double norm = graphTime > 0.0 ? r.seconds / graphTime : 0.0;
        t.add_row({name, Table::num(static_cast<long long>(K)), bench::model_name(m),
                   Table::num(r.scaledTotal), Table::num(paper_tot(name, K, m)),
                   Table::num(r.scaledMax), Table::num(r.avgMsgs), Table::num(r.seconds),
                   "(" + Table::num(norm, 1) + ")", Table::num(r.pctImbalance, 1)});
        json.add("runs")
            .field("matrix", name)
            .field("k", K)
            .field("model", std::string(bench::model_name(m)))
            .field("scaled_total_volume", r.scaledTotal)
            .field("scaled_max_volume", r.scaledMax)
            .field("avg_msgs_per_proc", r.avgMsgs)
            .field("partition_seconds", r.seconds)
            .field("time_vs_graph", norm)
            .field("pct_imbalance", r.pctImbalance)
            .field("paper_total_volume", paper_tot(name, K, m));
        Acc& ac = acc[{K, static_cast<int>(m)}];
        ac.tot += r.scaledTotal;
        ac.max += r.scaledMax;
        ac.msgs += r.avgMsgs;
        ac.time += r.seconds;
        ac.norm += norm;
        ++ac.n;
      }
      t.add_separator();
    }
  }

  // Averages block (the bottom of the paper's Table 2).
  std::array<Acc, 3> overall;
  for (idx_t K : env.kValues) {
    for (const Model m : kModels) {
      const Acc& ac = acc[{K, static_cast<int>(m)}];
      if (ac.n == 0) continue;
      const double n = ac.n;
      t.add_row({"average", Table::num(static_cast<long long>(K)), bench::model_name(m),
                 Table::num(ac.tot / n), "", Table::num(ac.max / n), Table::num(ac.msgs / n),
                 Table::num(ac.time / n), "(" + Table::num(ac.norm / n, 1) + ")", ""});
      json.add("averages")
          .field("k", K)
          .field("model", std::string(bench::model_name(m)))
          .field("scaled_total_volume", ac.tot / n)
          .field("scaled_max_volume", ac.max / n)
          .field("avg_msgs_per_proc", ac.msgs / n)
          .field("partition_seconds", ac.time / n)
          .field("time_vs_graph", ac.norm / n);
      Acc& ov = overall[static_cast<std::size_t>(m)];
      ov.tot += ac.tot / n;
      ov.max += ac.max / n;
      ov.msgs += ac.msgs / n;
      ov.time += ac.time / n;
      ov.norm += ac.norm / n;
      ++ov.n;
    }
  }
  t.add_separator();
  for (const Model m : kModels) {
    const Acc& ov = overall[static_cast<std::size_t>(m)];
    if (ov.n == 0) continue;
    const double n = ov.n;
    t.add_row({"overall", "", bench::model_name(m), Table::num(ov.tot / n), "",
               Table::num(ov.max / n), Table::num(ov.msgs / n), Table::num(ov.time / n),
               "(" + Table::num(ov.norm / n, 1) + ")", ""});
    json.add("overall")
        .field("model", std::string(bench::model_name(m)))
        .field("scaled_total_volume", ov.tot / n)
        .field("scaled_max_volume", ov.max / n)
        .field("avg_msgs_per_proc", ov.msgs / n)
        .field("partition_seconds", ov.time / n)
        .field("time_vs_graph", ov.norm / n);
  }
  t.print();

  // Headline claims of §4, recomputed from our runs.
  const double g = overall[0].n ? overall[0].tot / overall[0].n : 0.0;
  const double h = overall[1].n ? overall[1].tot / overall[1].n : 0.0;
  const double f = overall[2].n ? overall[2].tot / overall[2].n : 0.0;
  if (g > 0 && h > 0 && f > 0) {
    std::printf(
        "\nHeadline claims (paper: fine-grain beats graph by 59%%, hypergraph-1d by 43%%;\n"
        "fine-grain ~7.3x and hypergraph-1d ~2.4x the graph partitioning time):\n"
        "  fine-grain vs graph-1d   : %.0f%% lower total volume\n"
        "  fine-grain vs hyper-1d   : %.0f%% lower total volume\n"
        "  hyper-1d  vs graph-1d    : %.0f%% lower total volume\n"
        "  normalized time hyper-1d : %.1fx   fine-grain: %.1fx\n",
        100.0 * (1.0 - f / g), 100.0 * (1.0 - f / h), 100.0 * (1.0 - h / g),
        overall[1].norm / overall[1].n, overall[2].norm / overall[2].n);
    json.scalar("pct_volume_saved_fg_vs_graph", 100.0 * (1.0 - f / g));
    json.scalar("pct_volume_saved_fg_vs_hyper1d", 100.0 * (1.0 - f / h));
    json.scalar("pct_volume_saved_hyper1d_vs_graph", 100.0 * (1.0 - h / g));
  }
  if (const auto path = args.flag("json"); path && !json.write(*path)) return 1;
  return obs.finish(0);
}
