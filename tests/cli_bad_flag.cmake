# Runs `fairidx_cli <CMD> --<FLAG> <VALUE>` and requires the malformed
# numeric value to be rejected: a non-zero exit and a one-line
# "error: --<FLAG>: ..." on stderr (never a silent 0 from atoi/atof).
#
#   cmake -DCLI=path/to/fairidx_cli -DCMD=run -DFLAG=height -DVALUE=banana \
#         -P cli_bad_flag.cmake
execute_process(COMMAND ${CLI} ${CMD} --${FLAG} ${VALUE}
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(result EQUAL 0)
  message(FATAL_ERROR "${CMD} --${FLAG} ${VALUE} exited 0")
endif()
if(NOT err MATCHES "^error: --${FLAG}: [^\n]*\n$")
  message(FATAL_ERROR "${CMD} --${FLAG} ${VALUE}: unexpected stderr: ${err}")
endif()
