# ctest -P helper: the generated-scenario contract through the CLIs.
#
#   same seeds, same bytes  CAMPAIGN (a generated:seed=K..M axis) run
#                           twice gives byte-identical campaign.json and
#                           campaign.csv: generation, the simulated runs
#                           and the difficulty probes are all
#                           seed-deterministic
#   cells say what ran      every cell records its generated_seed and a
#                           numeric difficulty
#   the pack reproduces     sdlbench_gen --seeds 1..3 twice gives the same
#                           pack.json, and the workcell.yaml a
#                           generated:seed=2 run writes equals the pack's
#                           gen_2.yaml
#
# Vars: RUNNER (sdlbench_run), GEN (sdlbench_gen), CAMPAIGN, WORK_DIR.
foreach(var RUNNER GEN CAMPAIGN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "gen_roundtrip.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run label)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} failed (${rc})\n${out}\n${err}")
  endif()
endfunction()

function(require_same a b label)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/${a}" "${WORK_DIR}/${b}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ")
  endif()
endfunction()

run("generated-axis campaign (first run)" "${RUNNER}" --campaign "${CAMPAIGN}" gen_a)
run("generated-axis campaign (second run)" "${RUNNER}" --campaign "${CAMPAIGN}" gen_b)
foreach(doc campaign.json campaign.csv)
  require_same(gen_a/${doc} gen_b/${doc} "generated-axis campaign run twice")
endforeach()

file(READ "${WORK_DIR}/gen_a/campaign.json" doc)
string(JSON n_cells LENGTH "${doc}" cells)
if(NOT n_cells EQUAL 3)
  message(FATAL_ERROR "generated-axis campaign: expected 3 cells, got ${n_cells}")
endif()
math(EXPR last "${n_cells} - 1")
foreach(i RANGE ${last})
  string(JSON seed ERROR_VARIABLE missing GET "${doc}" cells ${i} cell generated_seed)
  if(missing)
    message(FATAL_ERROR "generated-axis campaign: cell ${i} has no generated_seed")
  endif()
  string(JSON kind ERROR_VARIABLE missing TYPE "${doc}" cells ${i} cell difficulty)
  if(missing OR NOT kind STREQUAL "NUMBER")
    message(FATAL_ERROR
      "generated-axis campaign: cell ${i} has no numeric difficulty (${kind}${missing})")
  endif()
endforeach()

run("sdlbench_gen (first run)" "${GEN}" --seeds 1..3 pack_a)
run("sdlbench_gen (second run)" "${GEN}" --seeds 1..3 pack_b)
require_same(pack_a/pack.json pack_b/pack.json "sdlbench_gen run twice")
run("generated:seed=2 run" "${RUNNER}" --preset quickstart --scenario generated:seed=2
    single)
require_same(single/workcell.yaml pack_a/gen_2.yaml "generated:seed=2 spec")

message(STATUS "gen roundtrip OK: byte-identical campaign and pack, seeds and "
               "difficulties recorded, pack spec equals the run's")
