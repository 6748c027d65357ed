# ctest -P helper: fleet crash-recovery round trip.
#
# Runs CAMPAIGN once single-process (the reference), then twice through
# sdlbench_fleet: a clean 3-worker run, whose fused whole-grid journal
# must then resume under `sdlbench_run --resume` with nothing left to
# run, and a chaos run where one worker SIGKILLs itself right after a
# journal append, before its ack — the coordinator must salvage the
# journaled cell, re-lease the rest of the dead worker's lease, and still
# produce campaign.json/campaign.csv byte-identical to the reference. A duplicated cell would either trip
# the coordinator's lease-table guard (run fails) or change the report
# bytes (comparison fails), so "no cell executed twice" is checked by
# construction.
#
# Vars: RUNNER (sdlbench_run), FLEET (sdlbench_fleet), CAMPAIGN, WORK_DIR.
foreach(var RUNNER FLEET CAMPAIGN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "fleet_roundtrip.cmake: ${var} not set")
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

# Regression pin: the cost-model claim order (campaign::run_cells)
# is a scheduling detail and must not change a single output byte. The
# golden digest is that of a single-process run; only a deliberate model
# change (such as the camera's noise) may re-record it.
if(DEFINED GOLDEN_MD5)
  file(MD5 "${WORK_DIR}/ref/campaign.json" ref_md5)
  if(NOT ref_md5 STREQUAL GOLDEN_MD5)
    message(FATAL_ERROR
      "single-process campaign.json digest drifted: got ${ref_md5}, "
      "golden ${GOLDEN_MD5} — an execution-order or report change leaked "
      "into the output bytes")
  endif()
endif()

function(compare_outputs dir label)
  foreach(doc campaign.json campaign.csv)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${WORK_DIR}/ref/${doc}" "${dir}/${doc}"
      RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR
        "${label}: ${doc} differs from the single-process reference")
    endif()
  endforeach()
endfunction()

# Leg 1: clean 3-worker fleet run.
execute_process(
  COMMAND "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/fleet" --workers 3
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet run failed (${rc})\n${out}\n${err}")
endif()
compare_outputs("${WORK_DIR}/fleet" "clean fleet run")

# The fleet's fused journal is the one place results from several
# processes become one journal: sdlbench_run must accept it as a finished
# run of the same campaign and rewrite the same bytes.
execute_process(
  COMMAND "${RUNNER}" --campaign "${CAMPAIGN}" --resume "${WORK_DIR}/fleet"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume of the fleet directory failed (${rc})\n${out}\n${err}")
endif()
string(FIND "${out}" "Resuming: 4 cells already journaled, 0 still to run" resumed)
if(resumed EQUAL -1)
  message(FATAL_ERROR
    "resume of the fleet directory did not find all 4 cells journaled\n${out}\n${err}")
endif()
compare_outputs("${WORK_DIR}/fleet" "resumed fleet directory")

# Leg 2: SIGKILL worker 1 of 3 after its first journal append (record
# durable, ack unsent — the critical window). The coordinator must
# report the loss and salvage the journaled cell.
execute_process(
  COMMAND "${FLEET}" --campaign "${CAMPAIGN}" "${WORK_DIR}/fleet_kill"
          --workers 3 --worker-failpoints "1:worker.pre_ack_kill=kill@1#1"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos fleet run failed (${rc})\n${out}\n${err}")
endif()
string(FIND "${err}" "worker w1 lost" lost)
if(lost EQUAL -1)
  message(FATAL_ERROR
    "chaos run never reported the killed worker — the kill did not land\n"
    "${out}\n${err}")
endif()
string(FIND "${err}" "salvaged 1 journaled cell" salvaged)
if(salvaged EQUAL -1)
  message(FATAL_ERROR
    "chaos run did not salvage the journaled-but-unacked cell\n${out}\n${err}")
endif()
compare_outputs("${WORK_DIR}/fleet_kill" "chaos fleet run")

# Leg 3: an 11-cell grid of equal-cost cells with 2 workers makes every
# initial lease carry exactly 2 cells (leases are sized by expected cost:
# 2 cells fit the share of 11/4 cells, and 2 still fit 9/4 once the first
# lease is out — deterministic regardless of hello order), so the killed
# worker dies holding a journaled cell AND an untouched one: salvage and
# re-lease exercised together.
file(WRITE "${WORK_DIR}/eleven.yaml" "\
campaign:
  name: fleet_relase
  replicates: 11
  base_seed: 11
  seed_mode: per_cell
grid:
  solvers: [genetic]
  batch_sizes: [8]
experiment:
  total_samples: 16
plate:
  rows: 8
  cols: 12
")
execute_process(
  COMMAND "${RUNNER}" --campaign "${WORK_DIR}/eleven.yaml" "${WORK_DIR}/ref11"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "11-cell reference run failed (${rc})\n${out}\n${err}")
endif()
execute_process(
  COMMAND "${FLEET}" --campaign "${WORK_DIR}/eleven.yaml"
          "${WORK_DIR}/fleet_relase" --workers 2
          --worker-failpoints "0:worker.pre_ack_kill=kill@1#1"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "re-lease fleet run failed (${rc})\n${out}\n${err}")
endif()
string(FIND "${err}" "re-leasing 1" releases)
if(releases EQUAL -1)
  message(FATAL_ERROR
    "re-lease run never re-leased the dead worker's queued cell\n${out}\n${err}")
endif()
foreach(doc campaign.json campaign.csv)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/ref11/${doc}" "${WORK_DIR}/fleet_relase/${doc}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "re-lease run: ${doc} differs from the single-process reference")
  endif()
endforeach()

message(STATUS "fleet roundtrip OK: clean, resumed, killed-worker, and re-lease "
               "runs all byte-identical to the single-process reference")
