// Observability layer tests: the span tracer and its Chrome trace-event
// export (schema round-trip through parse_chrome_trace), deterministic
// span ids, the metrics registry and its dumps, JsonlSink open modes,
// and the `concat stats` telemetry aggregation — including the
// torn-tail-line fixture a killed campaign leaves behind.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "stc/obs/context.h"
#include "stc/obs/jsonl_sink.h"
#include "stc/obs/metrics.h"
#include "stc/obs/stats.h"
#include "stc/obs/trace.h"
#include "stc/serve/span_codec.h"
#include "stc/support/error.h"

namespace stc::obs {
namespace {

// ----------------------------------------------------------------- tracer

TEST(Tracer, DefaultConstructedIsDisabledAndInert) {
    Tracer tracer;
    EXPECT_FALSE(tracer.enabled());

    auto span = tracer.begin("phase", "nothing");
    EXPECT_EQ(span.tid, -1);
    tracer.end(std::move(span));
    EXPECT_EQ(tracer.event_count(), 0u);
    EXPECT_TRUE(tracer.events().empty());

    { const SpanScope scope(tracer, "phase", "still-nothing"); }
    EXPECT_EQ(tracer.event_count(), 0u);

    Context context;
    EXPECT_FALSE(context.enabled());
}

TEST(Tracer, RecordsCompleteSpansWithNesting) {
    const Tracer tracer = Tracer::make();
    EXPECT_TRUE(tracer.enabled());
    {
        const SpanScope outer(tracer, "phase", "campaign");
        {
            const SpanScope inner(tracer, "test-case", "TC0");
        }
        { const SpanScope sibling(tracer, "test-case", "TC1"); }
    }
    ASSERT_EQ(tracer.event_count(), 3u);

    // Completion order: inner spans close first.
    const auto events = tracer.events();
    EXPECT_EQ(events[0].name, "TC0");
    EXPECT_EQ(events[1].name, "TC1");
    EXPECT_EQ(events[2].name, "campaign");
    EXPECT_EQ(events[2].category, "phase");
    EXPECT_EQ(events[2].parent_id, 0u);  // root span
    EXPECT_EQ(events[0].parent_id, events[2].span_id);
    EXPECT_EQ(events[1].parent_id, events[2].span_id);
    EXPECT_NE(events[0].span_id, events[1].span_id);
    // All on the same (first) thread.
    for (const auto& e : events) EXPECT_EQ(e.tid, 0);
}

TEST(Tracer, SpanIdsAreDeterministicAcrossTracers) {
    // Same sequence of begins on a fresh tracer -> same ids: the ids
    // hash (thread ordinal, per-thread sequence), never addresses or
    // clock values.
    auto collect = [] {
        const Tracer tracer = Tracer::make();
        { const SpanScope a(tracer, "phase", "one"); }
        {
            const SpanScope b(tracer, "phase", "two");
            { const SpanScope c(tracer, "test-case", "nested"); }
        }
        std::vector<std::uint64_t> ids;
        for (const auto& e : tracer.events()) ids.push_back(e.span_id);
        return ids;
    };
    EXPECT_EQ(collect(), collect());
}

TEST(Tracer, ChromeTraceRoundTripsThroughTheParser) {
    const Tracer tracer = Tracer::make();
    {
        const SpanScope outer(
            tracer, "mutant-evaluation", "CObList::AddHead@s0",
            JsonObject().set("mutant", std::string("CObList::AddHead@s0")));
        const SpanScope inner(tracer, "method-call", "AddHead");
    }
    { const SpanScope quoted(tracer, "phase", "with \"quotes\" and \\"); }

    std::ostringstream os;
    tracer.write_chrome_trace(os);
    const std::string text = os.str();

    // Chrome trace-event envelope: complete events, one process.
    EXPECT_NE(text.find("{\"traceEvents\":["), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"pid\":1"), std::string::npos);

    std::istringstream is(text);
    const auto parsed = parse_chrome_trace(is);
    ASSERT_TRUE(parsed.has_value());
    const auto original = tracer.events();
    ASSERT_EQ(parsed->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ((*parsed)[i].name, original[i].name) << i;
        EXPECT_EQ((*parsed)[i].category, original[i].category) << i;
        EXPECT_EQ((*parsed)[i].ts_us, original[i].ts_us) << i;
        EXPECT_EQ((*parsed)[i].dur_us, original[i].dur_us) << i;
        EXPECT_EQ((*parsed)[i].tid, original[i].tid) << i;
        EXPECT_EQ((*parsed)[i].span_id, original[i].span_id) << i;
        EXPECT_EQ((*parsed)[i].parent_id, original[i].parent_id) << i;
    }
    // The custom arg survived the round trip.
    EXPECT_EQ((*parsed)[1].args.get_string("mutant"),
              std::optional<std::string>("CObList::AddHead@s0"));
}

TEST(Tracer, ParserRejectsMalformedTraces) {
    auto parse = [](const std::string& text) {
        std::istringstream is(text);
        return parse_chrome_trace(is);
    };
    EXPECT_FALSE(parse("").has_value());
    EXPECT_FALSE(parse("{}").has_value());
    EXPECT_FALSE(parse("{\"traceEvents\":[{\"name\":\"x\"}]}").has_value());
    // A "B" (begin-only) event is not the emitted subset.
    EXPECT_FALSE(
        parse("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"phase\",\"ph\":\"B\","
              "\"ts\":0,\"dur\":0,\"pid\":1,\"tid\":0}]}")
            .has_value());
    // Empty array is a valid trace of zero spans.
    const auto empty = parse("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
}

TEST(Tracer, ThreadsGetStableOrdinalsNotSystemIds) {
    const Tracer tracer = Tracer::make();
    { const SpanScope main_span(tracer, "phase", "main"); }
    std::thread worker(
        [&tracer] { const SpanScope span(tracer, "phase", "worker"); });
    worker.join();

    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    // Registration order: main thread first, worker second.
    EXPECT_EQ(events[0].tid, 0);
    EXPECT_EQ(events[1].tid, 1);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, DisabledRegistryIsInert) {
    Metrics metrics;
    EXPECT_FALSE(metrics.enabled());
    metrics.add("never");
    metrics.observe_ms("never_ms", 1.0);
    EXPECT_EQ(metrics.counter("never"), 0u);
    EXPECT_TRUE(metrics.counters().empty());
    EXPECT_TRUE(metrics.histograms().empty());
}

TEST(Metrics, CountersAccumulateAndSort) {
    const Metrics metrics = Metrics::make();
    metrics.add("b.second");
    metrics.add("a.first", 41);
    metrics.add("a.first");
    EXPECT_EQ(metrics.counter("a.first"), 42u);
    EXPECT_EQ(metrics.counter("absent"), 0u);

    const auto counters = metrics.counters();
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0].first, "a.first");
    EXPECT_EQ(counters[0].second, 42u);
    EXPECT_EQ(counters[1].first, "b.second");
}

TEST(Metrics, HistogramsTrackCountSumMinMax) {
    const Metrics metrics = Metrics::make();
    metrics.observe_ms("case_ms", 1.0);
    metrics.observe_ms("case_ms", 3.0);
    metrics.observe_ms("case_ms", 0.5);

    const auto histograms = metrics.histograms();
    ASSERT_EQ(histograms.size(), 1u);
    const auto& h = histograms[0];
    EXPECT_EQ(h.name, "case_ms");
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.sum_ms, 4.5);
    EXPECT_DOUBLE_EQ(h.min_ms, 0.5);
    EXPECT_DOUBLE_EQ(h.max_ms, 3.0);
    EXPECT_DOUBLE_EQ(h.mean_ms(), 1.5);
    std::uint64_t bucketed = 0;
    for (const auto& [le_ms, n] : h.buckets) bucketed += n;
    EXPECT_EQ(bucketed, 3u);
}

TEST(Metrics, DumpsContainEveryInstrument) {
    const Metrics metrics = Metrics::make();
    metrics.add("runner.verdict.pass", 7);
    metrics.observe_ms("runner.case_ms", 2.25);

    std::ostringstream text;
    metrics.write_text(text);
    EXPECT_NE(text.str().find("runner.verdict.pass"), std::string::npos);
    EXPECT_NE(text.str().find("runner.case_ms"), std::string::npos);
    EXPECT_NE(text.str().find("7"), std::string::npos);

    std::ostringstream json;
    metrics.write_json(json);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"counters\""), std::string::npos);
    EXPECT_NE(j.find("\"histograms\""), std::string::npos);
    EXPECT_NE(j.find("\"runner.verdict.pass\":7"), std::string::npos);
    EXPECT_NE(j.find("\"count\":1"), std::string::npos);
    EXPECT_NE(j.find("\"buckets\":[["), std::string::npos);
}

TEST(Metrics, SharedHandleUpdatesOneRegistry) {
    const Metrics metrics = Metrics::make();
    const Metrics copy = metrics;  // the campaign hands copies to workers
    copy.add("shared");
    EXPECT_EQ(metrics.counter("shared"), 1u);

    std::thread worker([copy] { copy.add("shared", 9); });
    worker.join();
    EXPECT_EQ(metrics.counter("shared"), 10u);
}

// -------------------------------------------------------------- JsonlSink

TEST(JsonlSink, AppendModePreservesPreviousGenerations) {
    const std::string path = "/tmp/stc_obs_sink_modes.jsonl";
    std::remove(path.c_str());

    {
        JsonlSink sink = JsonlSink::to_file(path);
        sink.emit(JsonObject().set("event", std::string("one")));
        sink.emit(JsonObject().set("event", std::string("two")));
        EXPECT_EQ(sink.count(), 2u);
    }
    {
        JsonlSink sink = JsonlSink::to_file(path, JsonlSink::OpenMode::Append);
        sink.emit(JsonObject().set("event", std::string("three")));
    }

    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);  // append kept the first generation
    EXPECT_NE(lines[0].find("\"one\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"three\""), std::string::npos);

    // Truncate mode starts the file over.
    {
        JsonlSink sink = JsonlSink::to_file(path, JsonlSink::OpenMode::Truncate);
        sink.emit(JsonObject().set("event", std::string("fresh")));
    }
    std::ifstream again(path);
    lines.clear();
    while (std::getline(again, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"fresh\""), std::string::npos);
}

// ------------------------------------------------------- telemetry stats

/// A plausible two-generation telemetry stream: generation 1 was
/// interrupted mid-write (torn tail), generation 2 resumed its finished
/// item and completed the rest.
std::string two_generation_fixture() {
    return
        // generation 1
        "{\"event\":\"campaign-start\",\"campaign\":\"c0ffee\",\"class\":\"CObList\","
        "\"seed\":7,\"jobs\":2,\"mutants\":3,\"cases\":10,\"seq\":0}\n"
        "{\"event\":\"item-start\",\"item\":0,\"mutant\":\"M0\",\"worker\":0,\"seq\":1}\n"
        "{\"event\":\"item-finish\",\"item\":0,\"mutant\":\"M0\",\"worker\":0,"
        "\"fate\":\"killed\",\"reason\":\"crash\",\"wall_ms\":12.5,\"seq\":2}\n"
        "{\"event\":\"item-start\",\"item\":1,\"mutant\":\"M1\",\"wor"  // torn
        "\n"
        // generation 2 (resumed)
        "{\"event\":\"campaign-start\",\"campaign\":\"c0ffee\",\"class\":\"CObList\","
        "\"seed\":7,\"jobs\":2,\"mutants\":3,\"cases\":10,\"seq\":0}\n"
        "{\"event\":\"item-resumed\",\"item\":0,\"mutant\":\"M0\","
        "\"fate\":\"killed\",\"reason\":\"crash\",\"seq\":1}\n"
        "{\"event\":\"item-start\",\"item\":1,\"mutant\":\"M1\",\"worker\":0,\"seq\":2}\n"
        "{\"event\":\"item-finish\",\"item\":1,\"mutant\":\"M1\",\"worker\":0,"
        "\"fate\":\"killed\",\"reason\":\"assertion\",\"wall_ms\":30.0,\"seq\":3}\n"
        "{\"event\":\"item-start\",\"item\":2,\"mutant\":\"M2\",\"worker\":1,\"seq\":4}\n"
        "{\"event\":\"item-finish\",\"item\":2,\"mutant\":\"M2\",\"worker\":1,"
        "\"fate\":\"equivalent\",\"reason\":\"alive\",\"wall_ms\":5.0,\"seq\":5}\n"
        "{\"event\":\"campaign-end\",\"campaign\":\"c0ffee\",\"items\":3,"
        "\"executed\":2,\"resumed\":1,\"killed\":2,\"equivalent\":1,"
        "\"not_covered\":0,\"score\":1.0,\"workers\":2,\"steals\":1,"
        "\"wall_ms\":40.5,\"seq\":6}\n";
}

TEST(TelemetryStats, AggregatesAcrossGenerationsAndTornTail) {
    std::istringstream in(two_generation_fixture());
    const TelemetryStats stats = TelemetryStats::from_stream(in);

    EXPECT_EQ(stats.campaign, "c0ffee");
    EXPECT_EQ(stats.class_name, "CObList");
    EXPECT_EQ(stats.seed, 7u);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.declared_mutants, 3u);
    EXPECT_EQ(stats.generations, 2u);
    EXPECT_EQ(stats.malformed_lines, 1u);  // the torn write
    EXPECT_EQ(stats.starts, 3u);
    EXPECT_EQ(stats.finishes, 3u);
    EXPECT_EQ(stats.resumes, 1u);

    // Items deduplicate by index across generations; item 0 appears as
    // finish (gen 1) and resume (gen 2) but counts once.
    ASSERT_EQ(stats.items.size(), 3u);
    EXPECT_EQ(stats.items[0].mutant, "M0");
    EXPECT_EQ(stats.items[0].fate, "killed");
    EXPECT_FALSE(stats.items[0].has_timing);  // last event was a resume
    EXPECT_TRUE(stats.items[1].has_timing);
    EXPECT_DOUBLE_EQ(stats.items[1].wall_ms, 30.0);

    const auto fates = stats.fate_counts();
    EXPECT_EQ(fates.at("killed"), 2u);
    EXPECT_EQ(fates.at("equivalent"), 1u);

    const auto reasons = stats.kill_reasons();
    EXPECT_EQ(reasons.at("crash"), 1u);
    EXPECT_EQ(reasons.at("assertion"), 1u);
    EXPECT_EQ(reasons.count("alive"), 0u);  // only killed items counted

    // Worker loads count only items whose LAST event carried timing:
    // M0's resume superseded its generation-1 finish, so only M1 and M2
    // contribute.
    const auto loads = stats.worker_loads();
    ASSERT_EQ(loads.size(), 2u);
    EXPECT_EQ(loads[0].worker, 0u);
    EXPECT_EQ(loads[0].items, 1u);
    EXPECT_DOUBLE_EQ(loads[0].busy_ms, 30.0);
    EXPECT_EQ(loads[1].worker, 1u);
    EXPECT_DOUBLE_EQ(loads[1].busy_ms, 5.0);

    EXPECT_TRUE(stats.have_summary);
    EXPECT_EQ(stats.killed, 2u);
    EXPECT_EQ(stats.steals, 1u);
    EXPECT_DOUBLE_EQ(stats.score, 1.0);
}

TEST(TelemetryStats, RenderListsSlowestItemsFirst) {
    std::istringstream in(two_generation_fixture());
    const TelemetryStats stats = TelemetryStats::from_stream(in);

    std::ostringstream os;
    stats.render(os, 2);
    const std::string out = os.str();

    EXPECT_NE(out.find("CObList"), std::string::npos);
    EXPECT_NE(out.find("c0ffee"), std::string::npos);
    EXPECT_NE(out.find("fate"), std::string::npos);
    EXPECT_NE(out.find("kill reason"), std::string::npos);
    EXPECT_NE(out.find("slowest item"), std::string::npos);
    EXPECT_NE(out.find("worker"), std::string::npos);
    // M1 (30 ms) ranks above M2 (5 ms); M0 has no timing and never
    // enters the slowest table.
    const auto m1 = out.find("M1");
    const auto m2 = out.find("M2");
    ASSERT_NE(m1, std::string::npos);
    ASSERT_NE(m2, std::string::npos);
    EXPECT_LT(m1, m2);
}

TEST(TelemetryStats, EmptyAndMissingInputsAreHandled) {
    std::istringstream in("");
    const TelemetryStats stats = TelemetryStats::from_stream(in);
    EXPECT_EQ(stats.generations, 0u);
    EXPECT_TRUE(stats.items.empty());
    EXPECT_FALSE(stats.have_summary);
    std::ostringstream os;
    stats.render(os);  // must not crash on an empty run
    EXPECT_FALSE(os.str().empty());

    EXPECT_THROW((void)TelemetryStats::from_file("/tmp/stc_obs_no_such.jsonl"),
                 Error);
}

TEST(TelemetryStats, FromFilesDeduplicatesItemsAndTalliesDispatchEvents) {
    const std::string coord =
        "/tmp/stc_obs_files_coord_" + std::to_string(getpid()) + ".jsonl";
    const std::string worker =
        "/tmp/stc_obs_files_worker_" + std::to_string(getpid()) + ".jsonl";
    {
        std::ofstream out(coord);
        out << R"({"event":"campaign-start","class":"X","mutants":2})" << "\n"
            << R"({"event":"worker-connect","worker":0})" << "\n"
            << R"({"event":"worker-disconnect","worker":1,"reason":"x"})"
            << "\n"
            << R"({"event":"worker-redispatch","item":1,"worker":1})" << "\n"
            << R"({"event":"item-finish","item":0,"mutant":"m0",)"
            << R"("fate":"killed","reason":"crash","worker":0,"wall_ms":1.0,)"
            << R"("shrunk":false})" << "\n";
    }
    {
        std::ofstream out(worker);
        out << R"({"event":"worker-session","worker":0})" << "\n"
            << R"({"event":"item-finish","item":0,"mutant":"m0",)"
            << R"("fate":"killed","reason":"crash","worker":0,"wall_ms":1.0,)"
            << R"("shrunk":false})" << "\n"
            << R"({"event":"item-finish","item":1,"mutant":"m1",)"
            << R"("fate":"alive","reason":"none","worker":0,"wall_ms":2.0,)"
            << R"("shrunk":false})" << "\n";
    }

    const TelemetryStats stats = TelemetryStats::from_files({coord, worker});
    EXPECT_EQ(stats.streams, 2u);
    // item 0 is reported by both perspectives but counts once.
    ASSERT_EQ(stats.items.size(), 2u);
    EXPECT_EQ(stats.items[0].index, 0u);
    EXPECT_EQ(stats.items[1].index, 1u);
    EXPECT_EQ(stats.finishes, 3u);  // raw event count keeps both
    EXPECT_EQ(stats.worker_connects, 1u);
    EXPECT_EQ(stats.worker_disconnects, 1u);
    EXPECT_EQ(stats.redispatched, 1u);
    EXPECT_EQ(stats.serve_sessions, 1u);

    std::ostringstream os;
    stats.render(os);
    EXPECT_NE(os.str().find("dispatch: 1 worker connect(s), 1 disconnect(s), "
                            "1 item(s) re-dispatched, 1 serve session(s), "
                            "2 stream(s)"),
              std::string::npos);

    // One of the files alone: single-process shape, no dispatch line
    // beyond its own events, no stream count.
    const TelemetryStats solo = TelemetryStats::from_files({worker});
    EXPECT_EQ(solo.streams, 1u);
    std::ostringstream solo_os;
    solo.render(solo_os);
    EXPECT_EQ(solo_os.str().find("stream(s)"), std::string::npos);

    EXPECT_THROW((void)TelemetryStats::from_files({coord, "/tmp/nope.jsonl"}),
                 Error);
    std::remove(coord.c_str());
    std::remove(worker.c_str());
}

// -------------------------------------------- distributed trace pieces

TEST(Tracer, ActorQualifiesSpanIdsAndExportedPid) {
    // The same span sequence on actor 0 and actor 1 must produce
    // disjoint id sets — that is the whole no-collision-on-merge
    // guarantee — and the actor shows up as Chrome "pid" actor+1.
    auto collect = [](int actor) {
        const Tracer tracer = Tracer::make(actor);
        { const SpanScope a(tracer, "phase", "one"); }
        { const SpanScope b(tracer, "phase", "two"); }
        std::vector<std::uint64_t> ids;
        for (const auto& e : tracer.events()) ids.push_back(e.span_id);
        return ids;
    };
    const auto coordinator = collect(0);
    const auto worker = collect(1);
    ASSERT_EQ(coordinator.size(), 2u);
    for (const std::uint64_t id : coordinator) {
        for (const std::uint64_t other : worker) EXPECT_NE(id, other);
    }
    // Determinism survives the actor fold.
    EXPECT_EQ(collect(1), collect(1));

    const Tracer tracer = Tracer::make(3);
    EXPECT_EQ(tracer.actor(), 3);
    { const SpanScope s(tracer, "phase", "x"); }
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"pid\":4"), std::string::npos);
}

TEST(Tracer, BeginWithParentOverridesStackButStillNestsChildren) {
    const Tracer tracer = Tracer::make(1);
    const std::uint64_t foreign_parent = 0xabcdef0123456789ULL;
    std::uint64_t outer_id = 0;
    {
        const SpanScope outer(tracer, "serve", "work-item", foreign_parent);
        outer_id = outer.id();
        { const SpanScope inner(tracer, "mutant-evaluation", "m"); }
    }
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    // inner closed first; it parents on the enclosing span normally.
    EXPECT_EQ(events[0].name, "m");
    EXPECT_EQ(events[0].parent_id, outer_id);
    // outer's recorded parent is the foreign id, not the (empty) stack.
    EXPECT_EQ(events[1].name, "work-item");
    EXPECT_EQ(events[1].parent_id, foreign_parent);
    // Parent 0 degrades to plain begin().
    { const SpanScope plain(tracer, "phase", "p", std::uint64_t{0}); }
    EXPECT_EQ(tracer.events().back().parent_id, 0u);
}

TEST(Tracer, AbsorbAndEventsFromSupportIncrementalDrain) {
    const Tracer tracer = Tracer::make();
    { const SpanScope a(tracer, "phase", "one"); }
    EXPECT_EQ(tracer.events_from(0).size(), 1u);
    EXPECT_TRUE(tracer.events_from(1).empty());
    EXPECT_TRUE(tracer.events_from(99).empty());

    TraceEvent foreign;
    foreign.name = "streamed";
    foreign.category = "serve";
    foreign.ts_us = 10;
    foreign.dur_us = 5;
    foreign.actor = 2;
    foreign.span_id = 42;
    foreign.parent_id = 7;
    tracer.absorb(foreign);
    const auto tail = tracer.events_from(1);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].name, "streamed");
    EXPECT_EQ(tail[0].actor, 2);
    EXPECT_EQ(tail[0].span_id, 42u);

    Tracer disabled;
    disabled.absorb(foreign);  // inert, not a crash
    EXPECT_TRUE(disabled.events_from(0).empty());
}

TEST(Tracer, TraceIdExportsAndSurvivesTheParser) {
    const Tracer tracer = Tracer::make();
    EXPECT_EQ(tracer.trace_id(), 0u);
    tracer.set_trace_id(0x1122334455667788ULL);
    EXPECT_EQ(tracer.trace_id(), 0x1122334455667788ULL);
    { const SpanScope s(tracer, "phase", "x"); }
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"traceId\":\"1122334455667788\""),
              std::string::npos);
    std::istringstream is(os.str());
    const auto parsed = parse_chrome_trace(is);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->size(), 1u);
}

TEST(Tracer, TraceEventWireJsonRoundTrips) {
    TraceEvent event;
    event.name = "work-item";
    event.category = "serve";
    event.ts_us = 123;
    event.dur_us = 456;
    event.tid = 2;
    event.actor = 3;
    event.span_id = 0xdeadbeefULL;
    event.parent_id = 0xfeedULL;
    event.args = JsonObject().set("item", std::uint64_t{7});

    // The one writer of a streamed span (serve::append_span_line), read
    // back through the generic path the coordinator falls back to.
    const auto round_trip = [](const TraceEvent& e) {
        std::string line;
        serve::append_span_line(line, e);
        const auto wire = JsonObject::parse(line);
        EXPECT_TRUE(wire.has_value()) << line;
        return wire ? trace_event_from_json(*wire) : std::nullopt;
    };
    const auto back = round_trip(event);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->name, event.name);
    EXPECT_EQ(back->category, event.category);
    EXPECT_EQ(back->ts_us, event.ts_us);
    EXPECT_EQ(back->dur_us, event.dur_us);
    EXPECT_EQ(back->tid, event.tid);
    EXPECT_EQ(back->actor, event.actor);
    EXPECT_EQ(back->span_id, event.span_id);
    EXPECT_EQ(back->parent_id, event.parent_id);
    EXPECT_EQ(back->args.get_uint("item"), std::optional<std::uint64_t>(7));

    // Root spans omit "parent" on the wire and come back as parent 0.
    event.parent_id = 0;
    const auto root = round_trip(event);
    ASSERT_TRUE(root.has_value());
    EXPECT_EQ(root->parent_id, 0u);

    EXPECT_FALSE(trace_event_from_json(JsonObject()).has_value());
    EXPECT_FALSE(
        trace_event_from_json(JsonObject().set("name", std::string("x")))
            .has_value());
}

TEST(Metrics, HistogramPercentilesFromLog2Buckets) {
    HistogramSnapshot empty;
    EXPECT_EQ(empty.percentile(0.5), 0.0);

    const Metrics metrics = Metrics::make();
    // 90 fast calls in the (0.5, 1] bucket, 10 slow in (64, 128].
    for (int i = 0; i < 90; ++i) metrics.observe_ms("m.eval_ms", 0.9);
    for (int i = 0; i < 10; ++i) metrics.observe_ms("m.eval_ms", 100.0);
    const auto hists = metrics.histograms();
    ASSERT_EQ(hists.size(), 1u);
    const HistogramSnapshot& h = hists[0];
    // A percentile is the log2 bucket's upper bound (µs buckets, so
    // 0.9ms lands in le-1.024ms), clamped to the observed max; p50/p90
    // land in the fast bucket, p99 in the slow one.
    EXPECT_EQ(h.percentile(0.50), 1.024);
    EXPECT_EQ(h.percentile(0.90), 1.024);
    EXPECT_EQ(h.percentile(0.99), 100.0);  // 131.072 clamped to max_ms
    EXPECT_EQ(h.percentile(0.0), 1.024);   // first non-empty bucket
    EXPECT_EQ(h.percentile(1.5), h.percentile(1.0));  // clamped q

    std::ostringstream text;
    metrics.write_text(text);
    EXPECT_NE(text.str().find("p50 ms"), std::string::npos);
    EXPECT_NE(text.str().find("p99 ms"), std::string::npos);
    std::ostringstream json;
    metrics.write_json(json);
    EXPECT_NE(json.str().find("\"p50_ms\":1.024"), std::string::npos);
    EXPECT_NE(json.str().find("\"p99_ms\":100"), std::string::npos);
}

// ------------------------------------------------- live follow pieces

namespace {

const char* const kFollowStream[] = {
    R"({"event":"campaign-start","campaign":"fp","class":"CObList",)"
    R"("seed":7,"jobs":2,"mutants":4,"cases":10,"model":false})",
    R"({"event":"item-finish","item":0,)"
    R"("mutant":"CObList::AddHead@s0.IndVarRepReq.NULL","fate":"killed",)"
    R"("reason":"crash","worker":0,"wall_ms":2.0,"shrunk":false})",
    R"({"event":"item-finish","item":1,)"
    R"("mutant":"CObList::AddTail@s1.IndVarBitNeg.k","fate":"alive",)"
    R"("reason":"none","worker":1,"wall_ms":6.0,"shrunk":false})",
    R"({"event":"metrics-snapshot","worker":1,"metrics":"{}"})",
};

std::string join_lines(std::size_t n) {
    std::string text;
    for (std::size_t i = 0; i < n; ++i) {
        text += kFollowStream[i];
        text += "\n";
    }
    return text;
}

}  // namespace

TEST(TelemetryStats, IncrementalAbsorbMatchesWholeStreamAbsorb) {
    TelemetryStats incremental;
    for (const char* line : kFollowStream) incremental.absorb_line(line);
    incremental.sort_items();

    std::istringstream stream(join_lines(4));
    TelemetryStats whole;
    whole.absorb_stream(stream);
    whole.streams = 0;  // absorb_line feeds lines, not whole streams

    std::ostringstream a;
    std::ostringstream b;
    incremental.render(a);
    whole.render(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(incremental.items.size(), 2u);
    EXPECT_EQ(incremental.metrics_snapshots, 1u);

    // Dedup-by-index holds incrementally too: a re-reported item (the
    // coordinator's merge copy of a worker-streamed finish) updates in
    // place instead of double-counting.
    incremental.absorb_line(kFollowStream[1]);
    incremental.sort_items();
    EXPECT_EQ(incremental.items.size(), 2u);
}

TEST(TelemetryStats, RenderFollowShowsProgressLoadAndOperators) {
    TelemetryStats stats;
    for (const char* line : kFollowStream) stats.absorb_line(line);
    stats.sort_items();

    std::ostringstream os;
    stats.render_follow(os, 4.0);
    const std::string text = os.str();
    EXPECT_NE(text.find("follow: CObList  2/4 item(s)"), std::string::npos);
    EXPECT_NE(text.find("alive=1"), std::string::npos);
    EXPECT_NE(text.find("killed=1"), std::string::npos);
    EXPECT_NE(text.find("rate 0.5 item(s)/s"), std::string::npos);
    EXPECT_NE(text.find("eta 4s"), std::string::npos);
    EXPECT_EQ(text.find("[campaign complete]"), std::string::npos);
    EXPECT_NE(text.find("w0 1"), std::string::npos);
    EXPECT_NE(text.find("w1 1"), std::string::npos);
    EXPECT_NE(text.find("operator p50/p90/p99 ms:"), std::string::npos);
    EXPECT_NE(text.find("IndVarRepReq"), std::string::npos);
    EXPECT_NE(text.find("IndVarBitNeg"), std::string::npos);

    stats.absorb_line(
        R"({"event":"campaign-end","campaign":"fp","items":4,"executed":2,)"
        R"("killed":1,"equivalent":0,"not_covered":0,"score":0.5,)"
        R"("workers":2,"wall_ms":8.0})");
    std::ostringstream done;
    stats.render_follow(done, 4.0);
    EXPECT_NE(done.str().find("[campaign complete]"), std::string::npos);

    // No timing yet: rate renders as unknown, not a division blowup.
    TelemetryStats fresh;
    std::ostringstream zero;
    fresh.render_follow(zero, 0.0);
    EXPECT_NE(zero.str().find("- item(s)/s"), std::string::npos);
}

TEST(TelemetryStats, WriteJsonCoversSummaryFatesAndOperators) {
    TelemetryStats stats;
    for (const char* line : kFollowStream) stats.absorb_line(line);
    stats.absorb_line(
        R"({"event":"campaign-end","campaign":"fp","items":4,"executed":2,)"
        R"("killed":1,"equivalent":0,"not_covered":0,"score":0.5,)"
        R"("workers":2,"wall_ms":8.0})");
    stats.sort_items();

    std::ostringstream os;
    stats.write_json(os, 1);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"class\":\"CObList\""), std::string::npos);
    EXPECT_NE(text.find("\"declared_mutants\":4"), std::string::npos);
    EXPECT_NE(text.find("\"fates\":{\"alive\":1,\"killed\":1}"),
              std::string::npos);
    EXPECT_NE(text.find("\"metrics_snapshots\":1"), std::string::npos);
    EXPECT_NE(text.find("\"operators\":["), std::string::npos);
    EXPECT_NE(text.find("\"operator\":\"IndVarRepReq\""), std::string::npos);
    EXPECT_NE(text.find("\"final\":{"), std::string::npos);
    EXPECT_NE(text.find("\"score\":0.5"), std::string::npos);
    // --top bounds the slowest-item table: the 6ms item only.
    EXPECT_NE(text.find("\"slowest\":["), std::string::npos);
    EXPECT_NE(text.find("\"mutant\":\"CObList::AddTail@s1.IndVarBitNeg.k\","
                        "\"fate\":\"alive\""),
              std::string::npos);
    EXPECT_EQ(text.find("\"mutant\":\"CObList::AddHead@s0.IndVarRepReq.NULL\","
                        "\"fate\":\"killed\""),
              std::string::npos);
    // Interrupted stream: "final" is null, never a half summary.
    TelemetryStats torn;
    torn.absorb_line(kFollowStream[0]);
    std::ostringstream torn_os;
    torn.write_json(torn_os);
    EXPECT_NE(torn_os.str().find("\"final\":null"), std::string::npos);
}

TEST(TelemetryTail, HoldsBackTornTailUntilTheNewlineArrives) {
    const std::string path =
        "/tmp/stc_obs_tail_" + std::to_string(getpid()) + ".jsonl";
    std::remove(path.c_str());

    TelemetryTail tail(path);
    TelemetryStats stats;
    EXPECT_EQ(tail.poll(stats), 0u);  // file does not exist yet

    std::ofstream out(path, std::ios::binary);
    out << kFollowStream[0] << "\n" << kFollowStream[1];  // torn second line
    out.flush();
    EXPECT_EQ(tail.poll(stats), 1u);
    EXPECT_EQ(stats.generations, 1u);
    EXPECT_EQ(stats.items.size(), 0u);
    EXPECT_EQ(stats.malformed_lines, 0u);  // the torn tail never parsed

    out << "\n";  // the newline completes the held-back line
    out.flush();
    EXPECT_EQ(tail.poll(stats), 1u);
    ASSERT_EQ(stats.items.size(), 1u);
    EXPECT_EQ(stats.items[0].fate, "killed");

    EXPECT_EQ(tail.poll(stats), 0u);  // nothing new
    out << kFollowStream[2] << "\n";
    out.flush();
    EXPECT_EQ(tail.poll(stats), 1u);
    stats.sort_items();
    EXPECT_EQ(stats.items.size(), 2u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace stc::obs
