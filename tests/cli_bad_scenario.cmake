# Writes a one-line scenario `<KEY> = <VALUE>` and requires
# `fairidx_cli check` to reject it: a non-zero exit and a one-line
# "error: ..." on stderr naming the key (never a silent "ok").
#
#   cmake -DCLI=path/to/fairidx_cli -DDIR=scratch/dir -DKEY=heights \
#         -DVALUE=99999999 -P cli_bad_scenario.cmake
set(cfg "${DIR}/cli_bad_scenario_${KEY}.cfg")
file(WRITE "${cfg}" "${KEY} = ${VALUE}\n")
execute_process(COMMAND ${CLI} check "${cfg}"
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(result EQUAL 0)
  message(FATAL_ERROR "check ${KEY} = ${VALUE} exited 0: ${out}")
endif()
if(NOT err MATCHES "^error: [^\n]*${KEY} = ${VALUE} is out of range[^\n]*\n$")
  message(FATAL_ERROR "check ${KEY} = ${VALUE}: unexpected stderr: ${err}")
endif()
