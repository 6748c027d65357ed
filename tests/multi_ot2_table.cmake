# ctest -P helper for smoke_bench_multi_ot2: runs BENCH (bench_multi_ot2,
# the paper's §4 "additional OT2s" study) and requires a table row for
# each of K = 1..4 OT2 decks, the K = 1 row counting the 387 commands of
# the paper's Table-1 run (B=1, N=128).
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "multi_ot2_table.cmake: BENCH not set")
endif()

execute_process(
  COMMAND "${BENCH}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

foreach(k 1 2 3 4)
  string(REGEX MATCH "\n *${k} \\|" row "${out}")
  if(NOT row)
    message(FATAL_ERROR "no table row for ${k} OT2 deck(s)\nstdout:\n${out}")
  endif()
endforeach()

# Columns: OT2s | TWH (makespan) | CCWH | ...
string(REGEX MATCH "\n *1 \\|[^|\n]*\\| *([0-9]+) \\|" row "${out}")
if(NOT CMAKE_MATCH_1 STREQUAL "387")
  message(FATAL_ERROR
    "the 1-deck row counts '${CMAKE_MATCH_1}' commands, not Table 1's 387\nstdout:\n${out}")
endif()

message(STATUS "bench_multi_ot2: rows for 1-4 decks, 387 commands on one deck")
