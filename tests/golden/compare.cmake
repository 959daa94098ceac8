# Run one bench and diff its stdout against the committed golden copy.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DACTUAL=<out file>
#         -P compare.cmake
#
# Any byte of difference fails the test; the unified diff (when `diff` is
# on PATH) shows which figure rows moved.  To accept an intended change,
# regenerate the golden file from the bench's stdout.
execute_process(COMMAND "${BENCH}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
