# The durability claim end to end through `fairidx_cli stream`: a run
# killed by SIGKILL after its second accepted batch (before that batch's
# seal, under fsync none), then rerun over the same --wal, must report
# its tenant `recovered` and finish with region aggregates byte-identical
# to a run that was never interrupted.
#
#   cmake -DCLI=path/to/fairidx_cli -DDIR=scratch/dir \
#         -P cli_stream_crash_recovery.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(flags --city la --height 5 --batch 200 --refine-bound 0.02 --shards 4
          --checkpoint-interval 4 --fsync none --retain-epochs 3)

execute_process(COMMAND ${CLI} stream ${flags} --wal ${DIR}/ref
                        --regions-out ${DIR}/regions-ref.csv
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "reference run exited ${result}: ${err}")
endif()

execute_process(COMMAND ${CLI} stream ${flags} --wal ${DIR}/kill
                        --crash-after-batches 2
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_QUIET)
if(result EQUAL 0)
  message(FATAL_ERROR "--crash-after-batches 2 run exited 0")
endif()

execute_process(COMMAND ${CLI} stream ${flags} --wal ${DIR}/kill
                        --regions-out ${DIR}/regions-recovered.csv
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "resumed run exited ${result}: ${err}")
endif()
if(NOT out MATCHES "\n5 +fair_kd_tree +20240601 +[^ ]+ +recovered ")
  message(FATAL_ERROR "resumed run's row is not recovered:\n${out}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${DIR}/regions-ref.csv ${DIR}/regions-recovered.csv
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "recovered region aggregates differ from the "
                      "uninterrupted run's")
endif()
