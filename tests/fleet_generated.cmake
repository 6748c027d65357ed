# ctest -P helper: a fleet over a generated scenario axis.
#
# generated:seed=17..19 draws two 96-well workcells and one 384-well one,
# so the grid mixes cell costs and every generated seed gets a difficulty
# probe. The campaign runs single-process (probes beside the cells in the
# runner's pool) and on a 3-worker fleet (probes on the coordinator's
# side thread, live merges held until they finish); campaign.json and
# campaign.csv must be byte-identical between the two.
#
# Vars: RUNNER (sdlbench_run), FLEET (sdlbench_fleet), WORK_DIR.
foreach(var RUNNER FLEET WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "fleet_generated.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/generated.yaml" "\
campaign:
  name: fleet_generated
  replicates: 2
  base_seed: 3
  seed_mode: per_cell
grid:
  workcells: [\"generated:seed=17..19\"]
  solvers: [genetic]
  batch_sizes: [4]
experiment:
  total_samples: 8
")

execute_process(
  COMMAND "${RUNNER}" --campaign "${WORK_DIR}/generated.yaml" "${WORK_DIR}/ref"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "single-process run failed (${rc})\n${out}\n${err}")
endif()
file(READ "${WORK_DIR}/ref/campaign.json" ref_doc)
string(FIND "${ref_doc}" "\"difficulty\"" scored)
if(scored EQUAL -1)
  message(FATAL_ERROR "campaign.json carries no difficulty scores")
endif()

execute_process(
  COMMAND "${FLEET}" --campaign "${WORK_DIR}/generated.yaml" "${WORK_DIR}/fleet"
          --workers 3
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet run failed (${rc})\n${out}\n${err}")
endif()

foreach(doc campaign.json campaign.csv)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/ref/${doc}" "${WORK_DIR}/fleet/${doc}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "fleet ${doc} differs from the single-process run")
  endif()
endforeach()

message(STATUS "generated-axis fleet run byte-identical to the single-process run")
