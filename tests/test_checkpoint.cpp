// Tests for campaign checkpointing: journal write/load round trips, the
// incremental log reader, kill-style truncated-journal recovery, loud
// digest-mismatch rejection, and resume flows producing reports
// byte-identical to a single uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "support/common.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/log.hpp"

using namespace sdl;
using namespace sdl::campaign;

namespace {

CampaignSpec tiny_spec() {
    CampaignSpec spec;
    spec.name = "ckpt";
    spec.base.total_samples = 6;
    spec.base.batch_size = 3;
    spec.axes.solvers = {"genetic", "random"};
    spec.axes.batch_sizes = {2, 3};
    spec.base_seed = 5;
    return spec;
}

/// The tiny grid, executed once and shared by every test (the journal
/// tests only re-serialize, never re-run).
const std::vector<CellResult>& shared_results() {
    static const std::vector<CellResult> results = [] {
        support::set_log_level(support::LogLevel::Error);
        return run(tiny_spec());
    }();
    return results;
}

std::string slurp(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

/// Appends `bytes` to the file at `path` as they are — a writer caught
/// mid-record, or hand-made damage.
void append_raw(const std::string& path, const std::string& bytes) {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file << bytes;
}

struct TempDir {
    explicit TempDir(std::string p) : path(std::move(p)) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

}  // namespace

// --------------------------------------------------------------- digests

TEST(Checkpoint, SpecDigestTracksSpecIdentity) {
    const CampaignSpec spec = tiny_spec();
    EXPECT_EQ(spec_digest(spec), spec_digest(tiny_spec()));
    CampaignSpec other = tiny_spec();
    other.base_seed += 1;
    EXPECT_NE(spec_digest(spec), spec_digest(other));
    const auto grid = expand_grid(spec);
    EXPECT_NE(cell_digest(grid[0]), cell_digest(grid[1]));
}

// ------------------------------------------------------------- round trip

TEST(Checkpoint, JournalRoundTripReproducesResultsExactly) {
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_roundtrip");
    write_journal(dir.path, spec, results.size(), results);

    const LoadedJournal loaded =
        load_journal(journal_path(dir.path), spec, expand_grid(spec));
    EXPECT_FALSE(loaded.dropped_torn_tail);
    ASSERT_EQ(loaded.cells.size(), results.size());
    // The reconstructed results serialize byte-identically — the property
    // resume relies on.
    EXPECT_EQ(campaign_results_to_json(spec, loaded.cells).pretty(),
              campaign_results_to_json(spec, results).pretty());
    EXPECT_EQ(campaign_results_to_csv(loaded.cells), campaign_results_to_csv(results));
    // Wall time rides along (for the fleet's busy time), outside the report.
    EXPECT_EQ(loaded.cells[0].wall_seconds, results[0].wall_seconds);
}

TEST(Checkpoint, LogReaderReturnsEachRecordOnceItsNewlineLands) {
    // The fleet coordinator tails worker journals while they grow: each
    // read returns exactly the records completed since the last one.
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    const std::vector<CampaignCell> grid = expand_grid(spec);
    TempDir dir("test_ckpt_reader");
    const std::string path = journal_path(dir.path);
    LogReader reader(path, kJournalSchema, spec_digest(spec), results.size());
    EXPECT_TRUE(reader.read().empty());  // no file yet
    EXPECT_FALSE(reader.header_seen());

    CheckpointJournal journal(dir.path, spec, results.size());
    EXPECT_TRUE(reader.read().empty());  // the header is not a record
    EXPECT_TRUE(reader.header_seen());
    for (std::size_t i = 0; i < 2; ++i) {
        journal.append(results[i]);
        const std::vector<support::json::Value> records = reader.read();
        ASSERT_EQ(records.size(), 1u) << i;
        EXPECT_EQ(parse_cell_record(records[0], grid, path).cell.index,
                  results[i].cell.index);
    }
    EXPECT_TRUE(reader.read().empty());

    // A record caught mid-write comes back only once its newline lands.
    const std::string line = cell_record_to_json(results[2]).dump();
    append_raw(path, line.substr(0, 25));
    EXPECT_TRUE(reader.read().empty());
    EXPECT_EQ(reader.remainder(), 25u);
    append_raw(path, line.substr(25) + "\n");
    const std::vector<support::json::Value> completed = reader.read();
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed[0].dump(), line);
    EXPECT_EQ(reader.remainder(), 0u);

    // The header is checked once, at the first read that sees it: a header
    // rewritten in place for another spec goes unseen by this reader, and
    // a fresh reader throws the digest mismatch.
    CampaignSpec other = tiny_spec();
    other.base_seed += 100;
    const std::string header = journal_header(spec, results.size()).dump();
    const std::string other_header = journal_header(other, results.size()).dump();
    ASSERT_EQ(header.size(), other_header.size());
    std::string text = slurp(path);
    text.replace(0, header.size(), other_header);
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << text;
    }
    journal.append(results[3]);
    EXPECT_EQ(reader.read().size(), 1u);
    LogReader fresh(path, kJournalSchema, spec_digest(spec), results.size());
    try {
        (void)fresh.read();
        FAIL() << "a header for another spec must throw";
    } catch (const support::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("digest mismatch"), std::string::npos);
    }
}

TEST(Checkpoint, TruncatedJournalDropsOnlyTheTornTail) {
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_truncated");
    write_journal(dir.path, spec, results.size(), results);

    // Kill-style damage: chop the file mid final record.
    std::string text = slurp(journal_path(dir.path));
    ASSERT_GT(text.size(), 40u);
    text.resize(text.size() - 40);
    {
        std::ofstream file(journal_path(dir.path), std::ios::binary | std::ios::trunc);
        file << text;
    }

    const LoadedJournal loaded =
        load_journal(journal_path(dir.path), spec, expand_grid(spec));
    EXPECT_TRUE(loaded.dropped_torn_tail);
    ASSERT_EQ(loaded.cells.size(), results.size() - 1);
    for (std::size_t i = 0; i < loaded.cells.size(); ++i) {
        EXPECT_EQ(loaded.cells[i].cell.index, results[i].cell.index);
    }
    // Loading reads only; resuming cuts the torn tail from the file, so
    // it ends after the header and the surviving records.
    EXPECT_EQ(slurp(journal_path(dir.path)), text);
    const ResumedJournal resumed = resume_journal(dir.path, spec, expand_grid(spec));
    EXPECT_EQ(resumed.loaded.cells.size(), results.size() - 1);
    EXPECT_EQ(slurp(journal_path(dir.path)), text.substr(0, text.rfind('\n') + 1));
}

TEST(Checkpoint, EmptyOrHeaderlessJournalIsRejected) {
    const CampaignSpec spec = tiny_spec();
    TempDir dir("test_ckpt_empty");
    {
        std::ofstream file(journal_path(dir.path), std::ios::binary);
    }
    EXPECT_THROW((void)load_journal(journal_path(dir.path), spec, expand_grid(spec)),
                 support::ConfigError);
    {
        // A torn header (kill before the first newline).
        std::ofstream file(journal_path(dir.path), std::ios::binary | std::ios::trunc);
        file << "{\"schema\":\"sdlbench.campaign_jou";
    }
    EXPECT_THROW((void)load_journal(journal_path(dir.path), spec, expand_grid(spec)),
                 support::ConfigError);
}

TEST(Checkpoint, SpecDigestMismatchIsRejectedLoudly) {
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_digest");
    write_journal(dir.path, spec, results.size(), results);

    CampaignSpec other = tiny_spec();
    other.base_seed += 100;
    try {
        (void)load_journal(journal_path(dir.path), other, expand_grid(other));
        FAIL() << "digest mismatch must throw";
    } catch (const support::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("digest mismatch"), std::string::npos);
    }
}

TEST(Checkpoint, CorruptMiddleRecordAndDuplicatesAreRejected) {
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_corrupt");
    write_journal(dir.path, spec, results.size(), results);
    std::string text = slurp(journal_path(dir.path));

    // Corrupt a middle record (still newline-terminated): loud failure,
    // not silent recovery — only the torn tail may be dropped.
    std::vector<std::string> lines;
    std::stringstream stream(text);
    for (std::string line; std::getline(stream, line);) lines.push_back(line);
    ASSERT_GE(lines.size(), 3u);
    std::string corrupted;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        corrupted += (i == 1) ? "{\"schema\":\"sdlbench.cell_result.v1\",garbage" : lines[i];
        corrupted += '\n';
    }
    {
        std::ofstream file(journal_path(dir.path), std::ios::binary | std::ios::trunc);
        file << corrupted;
    }
    EXPECT_THROW((void)load_journal(journal_path(dir.path), spec, expand_grid(spec)),
                 support::ConfigError);

    // A cell recorded twice is corruption, not progress.
    std::string duplicated = text + lines[1] + "\n";
    {
        std::ofstream file(journal_path(dir.path), std::ios::binary | std::ios::trunc);
        file << duplicated;
    }
    EXPECT_THROW((void)load_journal(journal_path(dir.path), spec, expand_grid(spec)),
                 support::ConfigError);
}

TEST(Checkpoint, WrongTypedFieldsNameTheJournalAndTheKey) {
    // A header or record field of the wrong type fails naming the journal
    // and the field, as a line that does not parse does (it never reads
    // as the default).
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_types");
    write_journal(dir.path, spec, results.size(), results);
    const std::string path = journal_path(dir.path);
    std::vector<std::string> lines;
    {
        std::stringstream stream(slurp(path));
        for (std::string line; std::getline(stream, line);) lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 2u);
    // The journal with line `line` (0 = the header) changed by `edit`.
    const auto edited = [&](std::size_t line, const auto& edit) {
        support::json::Value doc = support::json::parse(lines[line]);
        edit(doc);
        std::string text;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            text += i == line ? doc.dump() : lines[i];
            text += '\n';
        }
        return text;
    };
    // The journal with `field` of line `line` set to `value`.
    const auto with = [&](std::size_t line, const char* field,
                          support::json::Value value) {
        return edited(line, [&](support::json::Value& doc) { doc.set(field, value); });
    };
    // The journal with `field` of the first record's outcome, or of the
    // outcome's `section`, set to `value`.
    const auto with_outcome = [&](const char* section, const char* field,
                                  support::json::Value value) {
        return edited(1, [&](support::json::Value& doc) {
            support::json::Value* node = doc.as_object().find("outcome");
            if (section != nullptr) node = node->as_object().find(section);
            if (node->is_array()) node = &node->as_array().front();
            node->set(field, value);
        });
    };
    for (const auto& [text, key] : {
             std::pair{with(0, "cells_total", "4"), "cells_total"},
             std::pair{with(0, "schema", 5), "schema"},
             std::pair{with(0, "spec_digest", true), "spec_digest"},
             std::pair{with(1, "schema", 1.5), "schema"},
             std::pair{with(1, "cell_index", "0"), "cell_index"},
             std::pair{with(1, "wall_seconds", "slow"), "wall_seconds"},
             std::pair{with_outcome(nullptr, "samples", "many"), "samples"},
             std::pair{with_outcome("samples", "ratios", 5), "ratios"},
             std::pair{with_outcome(nullptr, "best_ratios", support::json::Value::object()),
                       "best_ratios"},
             std::pair{with_outcome(nullptr, "metrics", 3), "metrics"},
             std::pair{with_outcome("metrics", "total_s", "long"), "total_s"},
         }) {
        {
            std::ofstream file(path, std::ios::binary | std::ios::trunc);
            file << text;
        }
        try {
            (void)load_journal(path, spec, expand_grid(spec));
            ADD_FAILURE() << key << " of the wrong type loaded";
        } catch (const support::ConfigError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(path), std::string::npos) << what;
            EXPECT_NE(what.find(std::string(key) + " must be "), std::string::npos) << what;
        }
    }
}

TEST(Checkpoint, JournalProgressProtectsOnlyIncompleteRunsOfTheSameSpec) {
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_progress");
    const std::string path = journal_path(dir.path);

    EXPECT_EQ(journal_progress("no/such/journal.jsonl", spec, results.size()), 0u);

    // Incomplete run of this spec: progress worth protecting.
    const std::vector<CellResult> partial(results.begin(), results.begin() + 2);
    write_journal(dir.path, spec, results.size(), partial);
    EXPECT_EQ(journal_progress(path, spec, results.size()), 2u);

    // Same journal against a different spec: not this campaign's progress.
    CampaignSpec other = tiny_spec();
    other.base_seed += 1;
    EXPECT_EQ(journal_progress(path, other, results.size()), 0u);

    // A complete journal is a finished run — safe to redo, nothing lost.
    write_journal(dir.path, spec, results.size(), results);
    EXPECT_EQ(journal_progress(path, spec, results.size()), 0u);

    // A kill mid-final-record must NOT masquerade as complete: the torn
    // fragment is not a record, so the remaining progress is protected.
    {
        std::string text = slurp(path);
        text.resize(text.size() - 30);
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << text;
    }
    EXPECT_EQ(journal_progress(path, spec, results.size()), results.size() - 1);

    // A complete line of this campaign's journal that does not parse is
    // damage, not nothing to protect: the guard fails loudly.
    write_journal(dir.path, spec, results.size(), partial);
    append_raw(path, "{\"schema\":\"sdlbench.cell_result.v1\",garbage\n");
    EXPECT_THROW((void)journal_progress(path, spec, results.size()), support::ConfigError);
}

// ----------------------------------------------------------------- resume

TEST(Checkpoint, ResumeFromPartialJournalIsByteIdentical) {
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_resume");
    // Only the first k cells made it to the journal before the "crash".
    const std::vector<CellResult> partial(results.begin(), results.begin() + 2);
    write_journal(dir.path, spec, results.size(), partial);

    const std::vector<CampaignCell> grid = expand_grid(spec);
    LoadedJournal loaded = load_journal(journal_path(dir.path), spec, grid);
    ASSERT_EQ(loaded.cells.size(), 2u);

    // Re-run exactly the missing cells, as `--resume` does.
    std::vector<bool> have(grid.size(), false);
    for (const CellResult& result : loaded.cells) have[result.cell.index] = true;
    std::vector<CampaignCell> todo;
    for (const CampaignCell& cell : grid) {
        if (!have[cell.index]) todo.push_back(cell);
    }
    std::vector<CellResult> merged = run_cells(std::move(todo));
    for (CellResult& result : loaded.cells) merged.push_back(std::move(result));
    std::sort(merged.begin(), merged.end(), [](const CellResult& a, const CellResult& b) {
        return a.cell.index < b.cell.index;
    });

    EXPECT_EQ(campaign_results_to_json(spec, merged).pretty(),
              campaign_results_to_json(spec, results).pretty());
}

TEST(Checkpoint, HeaderFromOlderBuildsLoadsAndResumes) {
    // Journals written before static sharding was removed carry
    // shard_index/shard_count in their header. The keys are ignored, so
    // such a journal — even one from an old 2-of-3 shard run — loads as a
    // partial whole-grid journal, and resuming it finishes the grid.
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    const std::vector<CampaignCell> grid = expand_grid(spec);
    ASSERT_EQ(results.size(), 4u);
    for (const char* legacy_keys :
         {"\"shard_index\":0,\"shard_count\":1", "\"shard_index\":1,\"shard_count\":3"}) {
        TempDir dir("test_ckpt_legacy_header");
        const std::string path = journal_path(dir.path);
        {
            std::ofstream file(path, std::ios::binary);
            file << "{\"schema\":\"sdlbench.campaign_journal.v1\",\"campaign\":\"ckpt\","
                    "\"spec_digest\":\""
                 << spec_digest(spec) << "\",\"cells_total\":4," << legacy_keys << "}\n"
                 << cell_record_to_json(results[1]).dump() << "\n";
        }
        // One cell of four: progress a fresh run must not destroy.
        EXPECT_EQ(journal_progress(path, spec, results.size()), 1u) << legacy_keys;
        const LoadedJournal loaded = load_journal(path, spec, grid);
        ASSERT_EQ(loaded.cells.size(), 1u) << legacy_keys;
        EXPECT_EQ(loaded.cells[0].cell.index, 1u);

        // Resume as sdlbench_run does, appending the cells still owed.
        {
            ResumedJournal resumed = resume_journal(dir.path, spec, grid);
            ASSERT_EQ(resumed.loaded.cells.size(), 1u) << legacy_keys;
            for (const std::size_t i : {0u, 2u, 3u}) resumed.journal.append(results[i]);
        }
        std::vector<CellResult> resumed = load_journal(path, spec, grid).cells;
        std::sort(resumed.begin(), resumed.end(),
                  [](const CellResult& a, const CellResult& b) {
                      return a.cell.index < b.cell.index;
                  });
        EXPECT_EQ(campaign_results_to_json(spec, resumed).pretty(),
                  campaign_results_to_json(spec, results).pretty())
            << legacy_keys;
        EXPECT_EQ(journal_progress(path, spec, results.size()), 0u) << legacy_keys;
    }
}

// ------------------------------------------------------ injected failures

TEST(Checkpoint, RecoveryAtEveryShortWriteBoundary) {
    // Property: whatever byte count an interrupted append manages to get
    // out — 0 bytes, half a record, everything but the newline — the
    // reader recovers every earlier record and drops exactly the torn
    // tail. journal.append_short_write=err(K) truly truncates the write,
    // so each K exercises a real on-disk torn journal.
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    ASSERT_GE(results.size(), 2u);
    const std::string torn_line = cell_record_to_json(results[1]).dump();

    for (std::size_t keep = 0; keep <= torn_line.size(); ++keep) {
        TempDir dir("test_ckpt_short_write");
        {
            CheckpointJournal journal(dir.path, spec, results.size());
            journal.append(results[0]);
            support::failpoint::arm("journal.append_short_write=err(" +
                                    std::to_string(keep) + ")#1");
            EXPECT_THROW(journal.append(results[1]), support::Error) << keep;
            support::failpoint::disarm();
        }
        // The file really is torn at byte `keep` of the failed record.
        const std::string text = slurp(journal_path(dir.path));
        ASSERT_TRUE(text.size() > torn_line.size())
            << "journal lost its intact prefix at boundary " << keep;
        EXPECT_EQ(text.substr(text.size() - keep), torn_line.substr(0, keep));

        const LoadedJournal loaded =
            load_journal(journal_path(dir.path), spec, expand_grid(spec));
        ASSERT_EQ(loaded.cells.size(), 1u) << "boundary " << keep;
        EXPECT_EQ(loaded.cells[0].cell.index, results[0].cell.index);
        // keep == 0 means the interrupted write got nothing out: the
        // journal ends cleanly and there is no tail to drop.
        EXPECT_EQ(loaded.dropped_torn_tail, keep > 0) << "boundary " << keep;

        // And the resumed journal appends cleanly: nothing is torn after.
        ResumedJournal resumed = resume_journal(dir.path, spec, expand_grid(spec));
        resumed.journal.append(results[1]);
        const LoadedJournal healed =
            load_journal(journal_path(dir.path), spec, expand_grid(spec));
        EXPECT_EQ(healed.cells.size(), 2u) << "boundary " << keep;
        EXPECT_FALSE(healed.dropped_torn_tail) << "boundary " << keep;
    }
}

TEST(Checkpoint, InjectedFsyncFailureFailsTheAppendLoudly) {
    // The fsync fires after the record hit the page cache: the writer
    // must report failure (durability unknown) even though a later
    // reader may see the record intact — recovery tolerates both.
    const CampaignSpec spec = tiny_spec();
    const auto& results = shared_results();
    TempDir dir("test_ckpt_fsync_fail");
    {
        CheckpointJournal journal(dir.path, spec, results.size());
        support::failpoint::arm("journal.append_fsync=err#1");
        EXPECT_THROW(journal.append(results[0]), support::Error);
        support::failpoint::disarm();
        journal.append(results[0]);  // budget spent: the retry lands
    }
    // The failed append's bytes made it out (only durability was in
    // doubt), so the retry duplicated the record — which load_journal
    // reports loudly. This is exactly why the fleet worker dies instead
    // of retrying after a failed append.
    EXPECT_THROW(
        (void)load_journal(journal_path(dir.path), spec, expand_grid(spec)),
        support::ConfigError);
}
