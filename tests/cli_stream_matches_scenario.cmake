# Runs `fairidx_cli stream` with the CI smoke flags and `fairidx_cli run`
# on the equivalent scenario file, and requires both to print the same
# deterministic serving-row columns, pinned below: `stream` is the flag
# form of `workload = stream`, so the two must never drift apart.
#
#   cmake -DCLI=path/to/fairidx_cli -DCFG=examples/scenarios/stream_la.cfg \
#         -P cli_stream_matches_scenario.cmake

# The deterministic columns of the one serving row in `out`: everything
# from height to lookups, plus final_ence (latency, throughput, stalls
# and seconds are timing-dependent).
function(deterministic_columns out what result_var)
  string(REGEX MATCH "\n5 [^\n]*" row "${out}")
  if(NOT row)
    message(FATAL_ERROR "${what}: no serving row in:\n${out}")
  endif()
  string(STRIP "${row}" row)
  string(REGEX REPLACE " +" ";" fields "${row}")
  set(columns "")
  foreach(index RANGE 0 11)
    list(GET fields ${index} field)
    list(APPEND columns ${field})
  endforeach()
  list(GET fields 19 final_ence)
  list(APPEND columns ${final_ence})
  set(${result_var} "${columns}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${CLI} stream --city la --height 5 --batch 200
                        --refine-bound 0.02 --shards 4
                RESULT_VARIABLE result
                OUTPUT_VARIABLE stream_out
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "stream exited ${result}: ${err}")
endif()
execute_process(COMMAND ${CLI} run ${CFG}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE run_out
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "run ${CFG} exited ${result}: ${err}")
endif()

deterministic_columns("${stream_out}" "stream" stream_columns)
deterministic_columns("${run_out}" "run ${CFG}" run_columns)
set(expected 5 fair_kd_tree 20240601 fair_kd_tree-h5-s20240601 serving
             32 1153 3 16 3 0 0 0.02161)
if(NOT stream_columns STREQUAL expected)
  message(FATAL_ERROR "stream row: ${stream_columns}\nexpected:   ${expected}")
endif()
if(NOT run_columns STREQUAL stream_columns)
  message(FATAL_ERROR
          "run ${CFG} row: ${run_columns}\nstream row:     ${stream_columns}")
endif()
