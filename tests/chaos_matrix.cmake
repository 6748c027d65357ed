# ctest -P helper: the failpoint chaos matrix (docs/ROBUSTNESS.md).
#
# Runs CAMPAIGN once single-process (the golden reference, digest-pinned
# by GOLDEN_MD5), then drives sdlbench_fleet through the injected-failure
# legs the self-healing machinery exists for:
#
#   kill+respawn     a worker SIGKILLs itself after a durable journal
#                    append (before its ack); the coordinator salvages,
#                    respawns the slot, and finishes byte-identical
#   merge faults     the live merge's atomic_write fails (injected
#                    rename, then fsync error); the merge retries and
#                    the final report is untouched
#   coordinator kill the coordinator SIGKILLs itself mid-campaign;
#                    a restart without --resume refuses, --resume
#                    replays the ledger + worker journals and finishes
#                    byte-identical, starting no more workers than it
#                    has open cells and sizing their thread budget for
#                    that many, its summary counting only its own work
#                    (efficiency <= 100%, no respawns)
#   quarantine       one poisoned cell kills every worker that leases
#                    it; after 3 distinct incarnations it is quarantined
#                    (exit 6), every other cell completes, and the crash
#                    history lands in campaign.json
#
# Byte-identity against the single-process reference is asserted with
# the same GOLDEN_MD5 on every completing leg, so a chaos path that
# perturbs even one output byte fails the matrix. Coordinator-side
# failpoints are armed through SDLBENCH_FAILPOINTS, the only way to arm
# them.
#
# Vars: RUNNER (sdlbench_run), FLEET (sdlbench_fleet), CAMPAIGN,
# WORK_DIR, GOLDEN_MD5.
foreach(var RUNNER FLEET CAMPAIGN WORK_DIR GOLDEN_MD5)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos_matrix.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${RUNNER}" --campaign "${CAMPAIGN}" "${WORK_DIR}/ref"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference run failed (${rc})\n${out}\n${err}")
endif()
file(MD5 "${WORK_DIR}/ref/campaign.json" ref_md5)
if(NOT ref_md5 STREQUAL GOLDEN_MD5)
  message(FATAL_ERROR
    "reference campaign.json digest drifted: got ${ref_md5}, golden "
    "${GOLDEN_MD5}")
endif()

function(assert_golden dir label)
  file(MD5 "${dir}/campaign.json" got)
  if(NOT got STREQUAL GOLDEN_MD5)
    message(FATAL_ERROR
      "${label}: campaign.json digest ${got} != golden ${GOLDEN_MD5} — "
      "an injected failure leaked into the output bytes")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/ref/campaign.csv" "${dir}/campaign.csv"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${label}: campaign.csv differs from the reference")
  endif()
  if(EXISTS "${dir}/coordinator.jsonl")
    message(FATAL_ERROR
      "${label}: coordinator.jsonl survived a completed run — the ledger "
      "must be removed on success")
  endif()
endfunction()

function(assert_stderr needle label)
  string(FIND "${err}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${label}: expected '${needle}' on stderr\n${out}\n${err}")
  endif()
endfunction()

# ---- Leg 1: worker SIGKILL after a durable append; slot respawns.
# The coordinator respawns a lost slot only while the live workers are
# fewer than the open cells, so the leg runs 2 workers and every cell
# start sleeps 1 s: when w1 dies after its first cell, at most two of the
# four cells are done 0.25 s later (the backoff), leaving at least two
# open for one live worker, however fast the cells themselves compute.
execute_process(
  COMMAND "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/kill"
          --workers 2
          --worker-failpoints "1:worker.pre_ack_kill=kill@1#1"
          --worker-failpoints "*:worker.cell_start=delay(1000)"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kill+respawn leg failed (${rc})\n${out}\n${err}")
endif()
assert_stderr("worker w1 lost" "kill+respawn leg")
assert_stderr("salvaged 1 journaled cell" "kill+respawn leg")
assert_stderr("worker w1 respawned (generation 1" "kill+respawn leg")
assert_golden("${WORK_DIR}/kill" "kill+respawn leg")

# ---- Leg 2: live-merge atomic_write faults (rename, then fsync). The
# first coordinator atomic_write is the ledger header, so @2 lands on
# the first live-merge campaign.json write.
foreach(site rename fsync)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "SDLBENCH_FAILPOINTS=atomic_io.${site}=err@2#1"
            "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/merge_${site}" --workers 3
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "merge-fault leg (${site}) failed (${rc})\n${out}\n${err}")
  endif()
  assert_stderr("live merge failed" "merge-fault leg (${site})")
  assert_golden("${WORK_DIR}/merge_${site}" "merge-fault leg (${site})")
endforeach()

# ---- Leg 3: coordinator SIGKILL after the 2nd ack, then --resume.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "SDLBENCH_FAILPOINTS=coordinator.post_ack_kill=kill@2#1"
          "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/coord" --workers 3
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR
    "coordinator-kill leg: the coordinator survived its own kill "
    "failpoint\n${out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/coord/coordinator.jsonl")
  message(FATAL_ERROR
    "coordinator-kill leg: no coordinator.jsonl ledger after the kill")
endif()
# Orphaned workers notice the dead pipe within a beat; give them a
# moment so the resume's pid sweep is a no-op rather than load-bearing.
execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 1)
# A restart without --resume must refuse (real progress, live ledger).
execute_process(
  COMMAND "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/coord" --workers 3
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR
    "coordinator-kill leg: restart without --resume did not refuse\n${out}\n${err}")
endif()
assert_stderr("--resume" "coordinator-kill refusal")
file(GLOB dirs_before LIST_DIRECTORIES true "${WORK_DIR}/coord/workers/*")
execute_process(
  COMMAND "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/coord"
          --workers 3 --resume
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "coordinator resume failed (${rc})\n${out}\n${err}")
endif()
string(REGEX MATCH
  "Fleet resume: ([0-9]+) of ([0-9]+) cells already journaled, ([0-9]+) quarantined"
  resumed "${out}")
if(NOT resumed)
  message(FATAL_ERROR
    "coordinator resume never reported replayed progress\n${out}\n${err}")
endif()
# Each spawn gets a fresh incarnation directory (wN, then wNrG), so the
# new directories count the workers the resume started: one per open
# cell at most, since a worker beyond that would never be dealt a cell.
math(EXPR open_cells "${CMAKE_MATCH_2} - ${CMAKE_MATCH_1} - ${CMAKE_MATCH_3}")
# The default thread budget divides the host by the workers the resume
# can start, min(--workers, open cells), and the Fleet: line names them.
set(want_workers 3)
if(open_cells LESS 3)
  set(want_workers ${open_cells})
endif()
string(REGEX MATCH "Fleet: [0-9]+ cells on ([0-9]+) workers" fleet_line "${out}")
if(NOT fleet_line OR NOT CMAKE_MATCH_1 EQUAL want_workers)
  message(FATAL_ERROR
    "coordinator resume: '${fleet_line}' sizes the thread budget for other "
    "than min(3, ${open_cells}) workers\n${out}\n${err}")
endif()
file(GLOB dirs_after LIST_DIRECTORIES true "${WORK_DIR}/coord/workers/*")
list(LENGTH dirs_before n_before)
list(LENGTH dirs_after n_after)
math(EXPR started "${n_after} - ${n_before}")
if(started GREATER open_cells)
  message(FATAL_ERROR
    "coordinator resume: started ${started} workers for ${open_cells} open "
    "cell(s)\n${out}\n${err}")
endif()
# The summary covers the resumed run only: replayed cells add no busy
# time, and a slot's first spawn in this run is no respawn.
string(REGEX MATCH "Fleet done: [^\n]*" done_line "${out}")
string(REGEX MATCH "efficiency ([0-9]+)%" efficiency "${done_line}")
if(NOT efficiency OR CMAKE_MATCH_1 GREATER 100)
  message(FATAL_ERROR
    "coordinator resume: summary counts replayed work as this run's "
    "('${done_line}')\n${out}\n${err}")
endif()
string(FIND "${done_line}${err}" "respawned" respawned)
if(NOT respawned EQUAL -1)
  message(FATAL_ERROR
    "coordinator resume: first spawns reported as respawns\n${out}\n${err}")
endif()
assert_golden("${WORK_DIR}/coord" "coordinator resume leg")

# ---- Leg 4: a poisoned cell kills every worker that leases it; after 3
# distinct incarnations it is quarantined (exit 6) and every other cell
# completes with its crash history reported.
execute_process(
  COMMAND "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/poison"
          --workers 3
          --worker-failpoints "*:worker.cell_start[2]=kill"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 6)
  message(FATAL_ERROR
    "quarantine leg: expected exit 6, got ${rc}\n${out}\n${err}")
endif()
assert_stderr("cell 2 quarantined after crashing 3 distinct" "quarantine leg")
file(READ "${WORK_DIR}/poison/campaign.json" poison_doc)
string(FIND "${poison_doc}" "\"quarantined\"" quarantined)
if(quarantined EQUAL -1)
  message(FATAL_ERROR
    "quarantine leg: campaign.json carries no quarantined list")
endif()
string(FIND "${poison_doc}" "\"cells\": 3" completed)
if(completed EQUAL -1)
  message(FATAL_ERROR
    "quarantine leg: the 3 healthy cells did not all complete")
endif()
if(EXISTS "${WORK_DIR}/poison/coordinator.jsonl")
  message(FATAL_ERROR
    "quarantine leg: ledger survived a completed (if degraded) run")
endif()

message(STATUS "chaos matrix OK: kill+respawn, merge faults, coordinator "
               "kill+resume, and quarantine legs all behaved")
