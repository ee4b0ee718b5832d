# Runs PROGRAM and compares its stdout byte for byte with the file
# EXPECTED. On a mismatch the actual stdout goes to ACTUAL and the script
# fails, so `diff EXPECTED ACTUAL` shows the change.
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<file> -DACTUAL=<file> -P check_stdout.cmake
execute_process(COMMAND ${PROGRAM}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} failed: ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${EXPECTED}; it is in ${ACTUAL}")
endif()
