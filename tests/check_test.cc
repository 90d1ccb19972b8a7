// Tests for the src/check correctness tooling: the runtime invariant
// validator (each invariant class must abort on a broken fixture and stay
// silent on a healthy run), the offline Chrome-trace linter, and a mutation
// golden pinning every field check of the four JSON artifact schemas.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/check/trace_lint.h"
#include "src/check/validator.h"
#include "src/hw/topology.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/profile_report.h"
#include "src/obs/selfprof.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/whatif/whatif.h"
#include "src/obs/whatif/whatif_report.h"
#include "src/perf/perf_model.h"
#include "src/serving/instance.h"
#include "src/serving/server.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/util/chrome_trace.h"
#include "src/util/json.h"
#include "src/util/json_parse.h"
#include "src/workload/poisson.h"

namespace deepplan {
namespace {

using check::ArenaSpan;
using check::FabricLinkShare;
using check::LintChromeTrace;
using check::LintChromeTraceFile;
using check::LintProfileReport;
using check::LintSelfprofReport;
using check::LintWhatIfReport;
using check::SimValidator;
using check::TraceLintResult;

// Forces validation on (or off) for one test body and restores the
// environment-derived default afterwards.
class ScopedValidation {
 public:
  explicit ScopedValidation(int mode) { check::SetValidationForTesting(mode); }
  ~ScopedValidation() { check::SetValidationForTesting(-1); }
};

// ------------------------------------------------------ broken fixtures
// One EXPECT_DEATH per invariant class. The validator is forced on inside
// the death statement (it runs in the forked child).

TEST(ValidatorDeathTest, CausalityPastScheduledEvent) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnSchedule(/*now=*/100, /*when=*/50);
      },
      "causality violated.*scheduled in the past");
}

TEST(ValidatorDeathTest, CausalityQueuePopNotMonotone) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnQueuePop(/*prev_popped=*/200, /*when=*/150);
      },
      "causality violated.*pop order not monotone");
}

TEST(ValidatorDeathTest, CausalityDoubleSyncEventFire) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnSyncEventFire("SyncEvent::Fire",
                                      /*already_fired=*/true, /*now=*/7);
      },
      "causality violated.*fired twice");
}

TEST(ValidatorDeathTest, FabricOversubscribedLink) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        std::vector<FabricLinkShare> links(1);
        links[0].name = "pcie0";
        links[0].capacity = 1e9;
        links[0].allocated = 1.5e9;  // 150% of capacity
        links[0].transfers = 2;
        SimValidator::OnFabricAllocation(/*now=*/0, links);
      },
      "fabric flow conservation violated.*oversubscribed");
}

TEST(ValidatorDeathTest, FabricStalledTransfer) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnTransferRate(/*now=*/0, /*transfer=*/3, /*rate=*/0.0);
      },
      "fabric flow conservation violated.*non-positive fair share");
}

TEST(ValidatorDeathTest, FabricBytesDoNotIntegrate) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnTransferComplete(/*now=*/10, /*transfer=*/1,
                                         /*moved_bytes=*/900.0,
                                         /*total_bytes=*/1000.0);
      },
      "fabric flow conservation violated.*moved 900 of 1000");
}

TEST(ValidatorDeathTest, ArenaSpansLeaveGap) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        std::vector<ArenaSpan> spans;
        spans.push_back({/*offset=*/0, /*bytes=*/400, /*free=*/false});
        spans.push_back({/*offset=*/600, /*bytes=*/400, /*free=*/true});
        SimValidator::OnArenaUpdate(/*capacity=*/1000, /*used=*/400, spans);
      },
      "gpu memory accounting violated.*gap in arena");
}

TEST(ValidatorDeathTest, ArenaFreeBlocksNotCoalesced) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        std::vector<ArenaSpan> spans;
        spans.push_back({/*offset=*/0, /*bytes=*/500, /*free=*/true});
        spans.push_back({/*offset=*/500, /*bytes=*/500, /*free=*/true});
        SimValidator::OnArenaUpdate(/*capacity=*/1000, /*used=*/0, spans);
      },
      "gpu memory accounting violated.*not coalesced");
}

TEST(ValidatorDeathTest, ResidencyDoubleEvict) {
  // Real-component fixture: evicting the same instance twice must trip the
  // validator before the plain DP_CHECK does.
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        InstanceManager mgr(1, 1000);
        const int a = mgr.AddInstance(0, 0, 400);
        std::vector<int> evicted;
        mgr.MakeResident(a, 1, &evicted);
        mgr.Evict(a);
        mgr.Evict(a);
      },
      "instance residency violated.*non-resident instance");
}

TEST(ValidatorDeathTest, ResidencyEvictBusyInstance) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnEvict(/*instance=*/4, /*resident=*/true,
                              /*busy=*/true);
      },
      "instance residency violated.*busy instance");
}

TEST(ValidatorDeathTest, ServingWarmRequestWithColdComponents) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnRequestComplete(/*arrival=*/0, /*start=*/10,
                                        /*evict=*/0, /*load=*/500,
                                        /*completion=*/1000, /*cold=*/false,
                                        /*evictions=*/0);
      },
      "serving accounting violated.*warm request carries cold-start");
}

TEST(ValidatorDeathTest, ServingBreakdownNotAdditive) {
  EXPECT_DEATH(
      {
        ScopedValidation on(1);
        SimValidator::OnBreakdown(/*mean_queue_ms=*/1.0, /*mean_cold_ms=*/2.0,
                                  /*mean_exec_ms=*/3.0,
                                  /*mean_total_ms=*/10.0);
      },
      "serving accounting violated.*breakdown not additive");
}

// ------------------------------------------------------- healthy fixtures

// A contended fabric run plus an eviction churn loop exercise the causality,
// fabric, arena, and residency hooks end to end; with validation forced on,
// the run must complete (no abort) and the check counter must advance.
TEST(ValidatorTest, HealthyRunPassesAndCountsChecks) {
  ScopedValidation on(1);
  const std::uint64_t before = check::ChecksRun();

  Simulator sim;
  Fabric fabric(&sim);
  const LinkId uplink = fabric.AddLink("uplink", 12.6e9);
  const LinkId gpu0 = fabric.AddLink("gpu0", 12e9);
  const LinkId gpu1 = fabric.AddLink("gpu1", 12e9);
  int completions = 0;
  fabric.Start({uplink, gpu0}, 126'000'000, 0, [&](Nanos) { ++completions; });
  fabric.Start({uplink, gpu1}, 126'000'000, 0, [&](Nanos) { ++completions; });
  sim.ScheduleAfter(Millis(1),
                    [&] { fabric.Start({uplink, gpu0}, 1'000'000, 0,
                                       [&](Nanos) { ++completions; }); });
  sim.Run();
  EXPECT_EQ(completions, 3);

  InstanceManager mgr(2, 1000);
  std::vector<int> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(mgr.AddInstance(0, i % 2, 400));
  }
  std::vector<int> evicted;
  for (int round = 0; round < 3; ++round) {
    for (const int id : ids) {
      ASSERT_TRUE(mgr.MakeResident(id, round * 10 + id, &evicted));
    }
  }
  EXPECT_FALSE(evicted.empty());  // churn actually evicted something

  EXPECT_GT(check::ChecksRun(), before);
}

TEST(ValidatorTest, DisabledModeRunsNoChecksAndNeverAborts) {
  ScopedValidation off(0);
  const std::uint64_t before = check::ChecksRun();
  // Blatantly broken inputs: with validation off these must be ignored.
  SimValidator::OnSchedule(/*now=*/100, /*when=*/-5);
  SimValidator::OnEvict(/*instance=*/0, /*resident=*/false, /*busy=*/true);
  SimValidator::OnBreakdown(1.0, 2.0, 3.0, 100.0);
  EXPECT_EQ(check::ChecksRun(), before);
}

// The mode a hook sees changes as soon as SetValidationForTesting returns,
// in either direction and back to the environment default, within one
// process: each per-event hook, called directly and from a small simulation,
// counts a check exactly while validation is on.
TEST(ValidatorTest, ModeFlipsTakeEffectAtOnce) {
  const auto checks_of_one_round = [] {
    const std::uint64_t before = check::ChecksRun();
    SimValidator::OnSchedule(/*now=*/0, /*when=*/1);
    SimValidator::OnEventFire(/*now=*/0, /*when=*/1);
    SimValidator::OnQueuePop(/*prev_popped=*/0, /*when=*/1);
    SimValidator::OnStreamOpStart("exec", /*prev_start=*/0, /*start=*/1);
    SimValidator::OnSyncEventFire("SyncEvent::Fire", /*already_fired=*/false, 1);
    SimValidator::OnTransferComplete(1, /*transfer=*/7, 100.0, 100.0);
    Simulator sim;
    int fired = 0;
    sim.ScheduleAfter(5, [&fired] { ++fired; });
    sim.Run();
    EXPECT_EQ(fired, 1);
    return check::ChecksRun() - before;
  };
  // What -1 restores: DEEPPLAN_VALIDATE when set, else on only in Debug.
  const char* env = std::getenv("DEEPPLAN_VALIDATE");
#ifdef NDEBUG
  bool env_default = false;
#else
  bool env_default = true;
#endif
  if (env != nullptr && env[0] != '\0') {
    env_default = std::string(env) != "0";
  }

  check::SetValidationForTesting(1);
  EXPECT_TRUE(check::ValidationEnabled());
  const std::uint64_t on_round = checks_of_one_round();
  EXPECT_GE(on_round, 6u + 3u);  // six direct calls, then schedule, pop, fire
  check::SetValidationForTesting(0);
  EXPECT_FALSE(check::ValidationEnabled());
  EXPECT_EQ(checks_of_one_round(), 0u);
  check::SetValidationForTesting(1);
  EXPECT_EQ(checks_of_one_round(), on_round);
  check::SetValidationForTesting(-1);
  EXPECT_EQ(check::ValidationEnabled(), env_default);
  EXPECT_EQ(checks_of_one_round(), env_default ? on_round : 0u);
  check::SetValidationForTesting(0);
  EXPECT_EQ(checks_of_one_round(), 0u);
  check::SetValidationForTesting(-1);
  EXPECT_EQ(check::ValidationEnabled(), env_default);
}

// --------------------------------------------------------- trace linting

// Renders a healthy multi-phase document through the real writer.
std::string HealthyTraceJson() {
  TraceDocument doc;
  doc.process_names = {"server0"};
  TraceEvent outer;
  outer.phase = TracePhase::kSpan;
  outer.track = "exec/gpu0";
  outer.name = "request";
  outer.ts = Micros(10);
  outer.duration = Micros(100);
  doc.events.push_back(outer);
  TraceEvent inner = outer;  // properly nested child slice
  inner.name = "layer";
  inner.ts = Micros(20);
  inner.duration = Micros(30);
  doc.events.push_back(inner);
  TraceEvent counter;
  counter.phase = TracePhase::kCounter;
  counter.track = "bw/pcie";
  counter.name = "bytes_per_sec";
  counter.ts = Micros(15);
  counter.value = 12e9;
  doc.events.push_back(counter);
  for (std::uint64_t id = 0; id < 2; ++id) {
    TraceEvent begin;  // overlapping async intervals are legal
    begin.phase = TracePhase::kAsyncBegin;
    begin.track = "pcie/gpu0";
    begin.name = "load";
    begin.ts = Micros(10 + id);
    begin.id = id;
    doc.events.push_back(begin);
    TraceEvent end = begin;
    end.phase = TracePhase::kAsyncEnd;
    end.ts = Micros(50 + id);
    doc.events.push_back(end);
  }
  return ChromeTraceWriter::ToJson(doc);
}

TEST(TraceLintTest, AcceptsWriterOutput) {
  const TraceLintResult r = LintChromeTrace(HealthyTraceJson());
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.num_spans, 2u);
  EXPECT_EQ(r.num_counters, 1u);
  EXPECT_EQ(r.num_asyncs, 4u);
  EXPECT_GE(r.num_tracks, 2u);
}

// Hand-written minimal documents, each broken in exactly one way. Every
// fixture carries the thread_name metadata the linter requires so only the
// intended defect is reported.
constexpr char kMeta[] =
    R"({"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"t"}})";

std::string Doc(const std::string& events) {
  return std::string("{\"traceEvents\":[") + kMeta + "," + events + "]}";
}

TEST(TraceLintTest, RejectsInvalidJson) {
  const TraceLintResult r = LintChromeTrace("{\"traceEvents\":[");
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("not valid JSON"), std::string::npos);
}

TEST(TraceLintTest, RejectsMissingTraceEvents) {
  const TraceLintResult r = LintChromeTrace("{\"other\":[]}");
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("traceEvents"), std::string::npos);
}

TEST(TraceLintTest, RejectsOutOfOrderTimestamps) {
  const TraceLintResult r = LintChromeTrace(Doc(
      R"({"ph":"X","pid":0,"tid":0,"name":"a","ts":50,"dur":1},)"
      R"({"ph":"X","pid":0,"tid":0,"name":"b","ts":10,"dur":1})"));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("out of order"), std::string::npos);
}

TEST(TraceLintTest, RejectsPartiallyOverlappingSlices) {
  const TraceLintResult r = LintChromeTrace(Doc(
      R"({"ph":"X","pid":0,"tid":0,"name":"a","ts":10,"dur":50},)"
      R"({"ph":"X","pid":0,"tid":0,"name":"b","ts":30,"dur":50})"));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("partially overlaps"), std::string::npos);
}

TEST(TraceLintTest, RejectsUnbalancedAsync) {
  const TraceLintResult r = LintChromeTrace(Doc(
      R"({"ph":"b","pid":0,"tid":0,"name":"load","cat":"pcie","id":"1","ts":10})"));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("async begin without matching end"),
            std::string::npos);
}

TEST(TraceLintTest, RejectsEventMissingRequiredFields) {
  const TraceLintResult r = LintChromeTrace(Doc(R"({"ph":"X","ts":10})"));
  EXPECT_FALSE(r.ok());
}

TEST(TraceLintTest, UnreadableFileIsALintError) {
  const TraceLintResult r =
      LintChromeTraceFile("/nonexistent/deepplan-trace.json");
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("cannot read"), std::string::npos);
}

// ------------------------------------------- schema mutation golden
//
// One valid document per JSON schema (Chrome trace, profile report, what-if
// report, selfprof report). Every object member is removed, and separately
// set to null, in the first element of each array and, in traceEvents, in
// the first event of each phase (metadata records by record name). Each
// mutant must be rejected unless its label is in the schema's list of
// mutants the linter accepts; the lists name exactly the fields no check
// covers.

enum class Mutation { kRemove, kNull };

// Renders `value` as JSON text with member `index` of the object at
// `target` dropped (kRemove) or replaced by null (kNull).
void RenderMutant(const JsonValue& value, const JsonValue* target,
                  std::size_t index, Mutation mutation, std::string* out) {
  if (value.is_object()) {
    out->push_back('{');
    bool first = true;
    for (std::size_t i = 0; i < value.fields().size(); ++i) {
      const bool hit = &value == target && i == index;
      if (hit && mutation == Mutation::kRemove) {
        continue;
      }
      if (!first) {
        out->push_back(',');
      }
      first = false;
      *out += Json::Str(value.fields()[i].first) + ":";
      if (hit) {
        *out += "null";
      } else {
        RenderMutant(value.fields()[i].second, target, index, mutation, out);
      }
    }
    out->push_back('}');
  } else if (value.is_array()) {
    out->push_back('[');
    for (std::size_t i = 0; i < value.items().size(); ++i) {
      if (i != 0) {
        out->push_back(',');
      }
      RenderMutant(value.items()[i], target, index, mutation, out);
    }
    out->push_back(']');
  } else if (value.is_string()) {
    *out += Json::Str(value.AsString());
  } else if (value.is_number()) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value.AsNumber());
    *out += buffer;
  } else if (value.is_bool()) {
    *out += value.AsBool() ? "true" : "false";
  } else {
    *out += "null";
  }
}

struct MemberSite {
  const JsonValue* object;
  std::size_t index;
  std::string label;  // dotted path, e.g. "profile_report.totals.exec_ns"
};

// Every mutation site under `value`, in document order.
void CollectMembers(const JsonValue& value, const std::string& label,
                    std::vector<MemberSite>* out) {
  if (value.is_array() && !value.items().empty()) {
    CollectMembers(value.items()[0], label + "[0]", out);
  }
  if (!value.is_object()) {
    return;
  }
  for (std::size_t i = 0; i < value.fields().size(); ++i) {
    const auto& [key, field] = value.fields()[i];
    const std::string path = label.empty() ? key : label + "." + key;
    out->push_back({&value, i, path});
    if (key != "traceEvents" || !field.is_array()) {
      CollectMembers(field, path, out);
      continue;
    }
    std::set<std::string> seen;
    for (const JsonValue& event : field.items()) {
      std::string kind = event.Find("ph")->AsString();
      if (kind == "M") {
        kind += " " + event.Find("name")->AsString();
      }
      if (seen.insert(kind).second) {
        CollectMembers(event, path + "[" + kind + "]", out);
      }
    }
  }
}

// The paths of the members of `json` whose mutants `lint` accepts: the bare
// path when both mutants pass, else "<path> removed" or "<path> null".
// `json` itself must lint clean.
template <typename Lint>
std::vector<std::string> AcceptedMutants(const std::string& json, Lint lint) {
  const TraceLintResult clean = lint(json);
  EXPECT_TRUE(clean.ok()) << (clean.errors.empty() ? "" : clean.errors[0]);
  const JsonParseResult parsed = ParseJson(json);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  std::vector<MemberSite> sites;
  CollectMembers(parsed.value, "", &sites);
  EXPECT_GT(sites.size(), 10u);
  const auto passes = [&](const MemberSite& site, Mutation mutation) {
    std::string mutant;
    RenderMutant(parsed.value, site.object, site.index, mutation, &mutant);
    return lint(mutant).ok();
  };
  std::vector<std::string> accepted;
  for (const MemberSite& site : sites) {
    const bool removed = passes(site, Mutation::kRemove);
    const bool nulled = passes(site, Mutation::kNull);
    if (removed && nulled) {
      accepted.push_back(site.label);
    } else if (removed || nulled) {
      accepted.push_back(site.label + (removed ? " removed" : " null"));
    }
  }
  return accepted;
}

// A served workload small enough for a unit test that still evicts and
// cold-starts: 16 BERT-Base instances over GPUs with room for a few.
const CausalGraph& ServedGraph() {
  static const CausalGraph* graph = [] {
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions options;
    options.strategy = Strategy::kDeepPlanDha;
    options.usable_bytes_per_gpu = 600'000'000;
    Server server(topology, perf, options);
    server.AddInstances(server.RegisterModelType(ModelZoo::BertBase()), 16);
    auto* recorded = new CausalGraph(/*enabled=*/true);
    server.set_causal(recorded, recorded->RegisterProcess("serve"));
    PoissonOptions w;
    w.rate_per_sec = 100.0;
    w.num_instances = 16;
    w.duration = Seconds(0.5);
    w.seed = 3;
    server.Run(GeneratePoissonTrace(w));
    return recorded;
  }();
  return *graph;
}

TEST(SchemaMutationTest, ChromeTrace) {
  TraceRecorder recorder;
  const int pid = recorder.RegisterProcess("server0");
  recorder.Span(pid, "exec/gpu0", "request", Micros(10), Micros(100));
  recorder.Counter(pid, "cum/requests", "count", Micros(15), 1.0);
  recorder.AsyncBegin(pid, "queue/gpu0", "wait", 1, Micros(10));
  recorder.AsyncEnd(pid, "queue/gpu0", "wait", 1, Micros(40));
  // The recorder writes no instants, but a trace from another tool may, so
  // one goes into the document by hand, in timestamp order on exec/gpu0.
  std::string trace = recorder.ToJson();
  const std::size_t counter = trace.find(R"({"ph":"C")");
  ASSERT_NE(counter, std::string::npos);
  trace.insert(counter,
               R"({"ph":"i","pid":0,"tid":0,"name":"route","ts":12,"s":"t"},)");
  const std::vector<std::string> expected = {"traceEvents[i].s"};
  EXPECT_EQ(AcceptedMutants(trace,
                            [](const std::string& json) {
                              return LintChromeTrace(json);
                            }),
            expected);
}

TEST(SchemaMutationTest, ProfileReport) {
  const std::string json =
      ProfileReportJson(BuildProfileReport(ServedGraph()));
  // Only the per-request rows and utilization entries are checked field by
  // field; the per-process rollups are free-form.
  const std::string process = "profile_report.processes[0].";
  const std::string request = "profile_report.per_request[0].";
  const std::string resource = "profile_report.utilization[0].";
  const std::vector<std::string> expected = {
      process + "process",
      process + "name",
      process + "requests",
      process + "cold_requests",
      process + "attribution",
      process + "attribution.queue_ns",
      process + "attribution.evict_ns",
      process + "attribution.pcie_ns",
      process + "attribution.pcie_contention_ns",
      process + "attribution.nvlink_ns",
      process + "attribution.exec_ns",
      process + "attribution.sync_ns",
      process + "total_latency_ns",
      process + "exec_busy_ns",
      request + "request",
      request + "process",
      request + "instance",
      request + "cold",
      request + "arrival_ns",
      request + "completion_ns",
      request + "exec_busy_ns",
      request + "path",
      resource + "process",
      resource + "kind",
      resource + "utilization",
      resource + "intervals",
  };
  EXPECT_EQ(AcceptedMutants(json,
                            [](const std::string& text) {
                              return LintProfileReport(text);
                            }),
            expected);
}

TEST(SchemaMutationTest, WhatIfReport) {
  const std::string json = WhatIfReportJson(
      BuildWhatIfReport(ServedGraph(), DefaultWhatIfExperiments()));
  // Per-process outcomes inside an experiment are free-form.
  const std::string process = "whatif_report.experiments[0].processes[0].";
  const std::vector<std::string> expected = {
      "whatif_report.experiments[0].processes",
      process + "process",
      process + "name",
      process + "requests",
      process + "baseline",
      process + "baseline.p50_ms",
      process + "baseline.p95_ms",
      process + "baseline.p99_ms",
      process + "baseline.mean_ms",
      process + "baseline.max_ms",
      process + "predicted",
      process + "predicted.p50_ms",
      process + "predicted.p95_ms",
      process + "predicted.p99_ms",
      process + "predicted.mean_ms",
      process + "predicted.max_ms",
      "whatif_report.experiments[0].per_request[0].cold",
  };
  EXPECT_EQ(AcceptedMutants(json,
                            [](const std::string& text) {
                              return LintWhatIfReport(text);
                            }),
            expected);
}

// Opens `phase` on `lane`, runs `body`, and closes it as `ns` long: a fixed
// stand-in for the wall clock, so every duration check sees the same input.
template <typename Body>
void TimedPhase(selfprof::SelfProfiler* lane, selfprof::Phase phase,
                std::int64_t ns, Body body) {
  ASSERT_TRUE(lane->Enter(phase));
  body();
  lane->ExitTimed(ns);
}

TEST(SchemaMutationTest, SelfprofReport) {
  using selfprof::Counter;
  using selfprof::Phase;
  selfprof::SelfProfiler a;
  selfprof::SelfProfiler b;
  TimedPhase(&a, Phase::kTotal, 1000, [&] {
    TimedPhase(&a, Phase::kSimDispatch, 400, [&] {
      TimedPhase(&a, Phase::kExecStream, 100, [] {});
    });
  });
  TimedPhase(&b, Phase::kTotal, 200, [&] {
    TimedPhase(&b, Phase::kWorkloadGen, 50, [] {});
  });
  // Non-zero in the first lane, so dropping one breaks the aggregate sum.
  a.Add(Counter::kEventsDispatched, 7);
  a.Add(Counter::kValidatorChecks, 3);
  a.Add(Counter::kHeartbeats, 1);
  const std::string json =
      selfprof::ReportJson("mutation", {{"a", &a}, {"b", &b}});
  // The host block is optional (deterministic projections omit it), but
  // when present it must be an object.
  const std::vector<std::string> expected = {"selfprof_report.host removed"};
  EXPECT_EQ(AcceptedMutants(json,
                            [](const std::string& text) {
                              return LintSelfprofReport(text);
                            }),
            expected);
}

// ------------------------------------------- binary journal lint mode

// The structural corruption matrix lives in tests/journal_test.cc; here the
// lint entry point's negative diagnoses are pinned the way trace_lint
// --journal surfaces them.
TEST(JournalLintTest, UnreadableFileIsALintError) {
  const TraceLintResult r =
      LintJournalFile("/nonexistent/deepplan-journal.dpj");
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("cannot open"), std::string::npos)
      << r.errors[0];
}

TEST(JournalLintTest, NonJournalBytesNameTheMagic) {
  const std::string path = ::testing::TempDir() + "/not_a_journal.dpj";
  {
    std::ofstream out(path, std::ios::binary);
    out << "ELF\x7f definitely not a journal";
  }
  const TraceLintResult r = LintJournalFile(path);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("DPJL"), std::string::npos) << r.errors[0];
  std::remove(path.c_str());
}

TEST(JournalLintTest, JsonJournalIsRedirectedToTheRightTool) {
  const std::string path = ::testing::TempDir() + "/json_journal.dpj";
  {
    std::ofstream out(path);
    out << CausalGraph(/*enabled=*/true).ToJson();
  }
  const TraceLintResult r = LintJournalFile(path);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("journal_convert"), std::string::npos)
      << r.errors[0];
  std::remove(path.c_str());
}

// Attaching a sink wrongly, or reading the own journal of a graph that
// records into a sink, aborts via DP_CHECK before it can corrupt a journal.
TEST(JournalDeathTest, AttachSinkToDisabledGraphAborts) {
  EXPECT_DEATH(
      {
        JournalWriter writer;
        CausalGraph graph(/*enabled=*/false);
        graph.AttachSink(&writer);
      },
      "enabled_");
}

TEST(JournalDeathTest, AttachSinkToNonEmptyGraphAborts) {
  EXPECT_DEATH(
      {
        JournalWriter writer;
        CausalGraph graph(/*enabled=*/true);
        const int req = graph.BeginRequest(graph.RegisterProcess("p"), 0, 0);
        graph.EndRequest(req, 1);
        graph.AttachSink(&writer);
      },
      "empty");
}

TEST(JournalDeathTest, ToJsonOnStreamingGraphAborts) {
  EXPECT_DEATH(
      {
        JournalWriter writer;
        CausalGraph graph(/*enabled=*/true);
        graph.AttachSink(&writer);
        graph.ToJson();
      },
      "keeps no journal of its own");
}

}  // namespace
}  // namespace deepplan
