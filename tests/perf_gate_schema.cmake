# ctest -P helper: the CI perf gate's schema, checked in tier-1.
#
# Runs `BENCH --quick` (bench_hotpath) in WORK_DIR, then COMPARE
# (tools/bench_compare.py) on its BENCH_hotpath.json against BASELINE
# with the gate's `--only speedup`, at --tolerance 100. Every gated
# metric is a higher-is-better ratio, which would have to go negative to
# regress by more than 100%, so timing noise cannot fail this. What does
# fail it is what the gate itself would reject for a reason other than
# speed: a gated metric that is missing, renamed, null or non-finite, or
# a run in which nothing is compared.
foreach(var BENCH PYTHON COMPARE BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perf_gate_schema.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${BENCH}" --quick
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "perf_gate_schema: ${BENCH} --quick exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${COMPARE}"
    --baseline "${BASELINE}"
    --current "${WORK_DIR}/BENCH_hotpath.json"
    --only speedup --tolerance 100
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "perf_gate_schema: the perf gate rejects bench_hotpath's output against "
    "the committed baseline\n${out}${err}")
endif()
message(STATUS "perf_gate_schema: ${out}")
