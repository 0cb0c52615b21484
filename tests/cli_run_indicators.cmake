# Runs `fairidx_cli run --city la --height 6 --threads <THREADS>` and
# requires the six paper indicators to print exactly as pinned below. The
# pipeline is deterministic per (city, algorithm, height) and bit-identical
# at any thread count, so a change to grouping, summation order, the split
# or the fit that moves a printed digit fails here.
#
#   cmake -DCLI=path/to/fairidx_cli -DTHREADS=2 -P cli_run_indicators.cmake
execute_process(COMMAND ${CLI} run --city la --height 6 --threads ${THREADS}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "run --threads ${THREADS} exited ${result}: ${err}")
endif()
foreach(line "neighborhoods: +54" "train ENCE: +0\\.05594"
             "test ENCE: +0\\.09576" "train accuracy: +0\\.8139"
             "test accuracy: +0\\.7778" "test \\|e-o\\|: +0\\.00897")
  if(NOT out MATCHES "(^|\n)${line}\n")
    message(FATAL_ERROR
            "run --threads ${THREADS}: no line matching '${line}' in:\n${out}")
  endif()
endforeach()
