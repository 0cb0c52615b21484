# The durability claim end to end through `fairidx_cli stream`: a run
# killed by SIGKILL after an accepted batch (before that batch's seal,
# under fsync none), then rerun over the same --wal, must report its
# tenant `recovered` and finish with region aggregates byte-identical to
# a run that was never interrupted.
#
# By default every checkpoint is a base and the kill lands after the
# second batch. -DCADENCE=delta checkpoints every 2 epochs with every 3rd
# one a base, kills after the third batch, and asserts that a link
# (delta-*.ckpt) is on disk then, so the recovery resolves a base + link
# chain before the WAL tail replays.
#
#   cmake -DCLI=path/to/fairidx_cli -DDIR=scratch/dir [-DCADENCE=delta] \
#         -P cli_stream_crash_recovery.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
if(CADENCE STREQUAL "delta")
  set(cadence --checkpoint-interval 2 --full-snapshot-interval 3)
  set(crash_after 3)
else()
  set(cadence --checkpoint-interval 4)
  set(crash_after 2)
endif()
set(flags --city la --height 5 --batch 200 --refine-bound 0.02 --shards 4
          ${cadence} --fsync none --retain-epochs 3)

execute_process(COMMAND ${CLI} stream ${flags} --wal ${DIR}/ref
                        --regions-out ${DIR}/regions-ref.csv
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "reference run exited ${result}: ${err}")
endif()

execute_process(COMMAND ${CLI} stream ${flags} --wal ${DIR}/kill
                        --crash-after-batches ${crash_after}
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_QUIET)
if(result EQUAL 0)
  message(FATAL_ERROR "--crash-after-batches ${crash_after} run exited 0")
endif()
if(CADENCE STREQUAL "delta")
  file(GLOB links ${DIR}/kill/fair_kd_tree-h5-s20240601/delta-*.ckpt)
  if(NOT links)
    message(FATAL_ERROR "no delta-*.ckpt on disk before the resume")
  endif()
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
